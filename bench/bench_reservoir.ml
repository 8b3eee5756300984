(* bench --reservoir: the two costs that set the domain reservoir's
   grace period, measured on this host (meta-only, run when named).

   - respawn: process CPU time of two domains that each allocate
     through their minor heap twice, as any sweep task does, spawned
     and joined afresh against borrowed from the reservoir.  The
     difference is what a pool paid per create+shutdown before it
     borrowed its domains: the spawn and join themselves, and the
     page faults of a fresh domain's minor heap.  The bare spawn+join
     of two idle domains is printed too.

   - parked tax: process CPU time of one single-domain simulator run
     with nothing parked, with two domains parked for the whole run
     (an idle jobs=2 pool kept alive: its workers block exactly as a
     parked slot does), right after a jobs=2 sweep, and one grace
     period after it.  Conditions are interleaved so host drift hits
     them alike; each reads as the median of its repeats.

   - heap: the runtime's top heap and the process's VmHWM (from
     /proc/self/status, where there is one) after the first and the
     last of 24 back-to-back jobs=2 sweeps.

   Break-even grace = respawn CPU / tax rate, the tax rate being the
   extra CPU seconds per wall second that two parked domains cost.  The
   run after one grace period must cost what the run with nothing
   parked costs: that is the bound on what parking leaves behind. *)

let scenario ~dur ~seed =
  let spec =
    Printf.sprintf "sys=lp; workers=4; src=a2; arrival=poisson:0.7x; dur=%s; seed=%d" dur seed
  in
  match Scenario.of_string spec with
  | Ok s -> s
  | Error e -> failwith (Scenario.error_to_string e)

let repeats = 7

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Let every parked domain retire, so the next step starts from an
   empty reservoir. *)
let drain_reservoir () =
  while Reservoir.parked () > 0 do
    Unix.sleepf Reservoir.grace_s
  done;
  Unix.sleepf Reservoir.grace_s

(* Allocate through the whole minor heap twice. *)
let touch () =
  let r = ref [] in
  for i = 1 to 2 * (Gc.get ()).Gc.minor_heap_size / 3 do
    r := [ i ]
  done;
  ignore (Sys.opaque_identity !r)

(* Mean CPU time of [n] rounds of running [f] on two domains. *)
let per_round ~n spawn join f =
  let c0 = cpu_s () in
  for _ = 1 to n do
    Array.iter join (Array.init 2 (fun _ -> spawn f))
  done;
  (cpu_s () -. c0) /. float_of_int n

let respawn_cpu () =
  drain_reservoir ();
  let bare = per_round ~n:50 Domain.spawn Domain.join ignore in
  let fresh = per_round ~n:50 Domain.spawn Domain.join touch in
  let reused = per_round ~n:50 Reservoir.acquire Reservoir.join touch in
  Format.printf
    "respawn: bare spawn+join of 2 domains %.0f us CPU; 2 working domains %.0f us fresh, %.0f \
     us borrowed@."
    (bare *. 1e6) (fresh *. 1e6) (reused *. 1e6);
  fresh -. reused

let server_run scenario =
  Gc.full_major ();
  let c0 = cpu_s () and t0 = Unix.gettimeofday () in
  ignore (Scenario.run scenario);
  (cpu_s () -. c0, Unix.gettimeofday () -. t0)

let sweep () = ignore (Exec.Sweep.run ~jobs:2 (fun x -> x * x) (List.init 8 Fun.id))

let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1e3))
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

let heap_ratchet () =
  let points = List.init 8 (fun seed -> scenario ~dur:"10ms" ~seed) in
  let report k =
    let top = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
    Format.printf "  after sweep %2d: top heap %.1f MB, VmHWM %s@." k top
      (match vm_hwm_mb () with Some mb -> Printf.sprintf "%.1f MB" mb | None -> "n/a")
  in
  for k = 1 to 24 do
    ignore (Exec.Sweep.run ~jobs:2 Scenario.run points);
    if k = 1 || k = 24 then report k
  done

let run () =
  Bench_util.header "reservoir: respawn cost vs parked-domain tax (host-dependent)";
  (* First, so the top heap it reads is set by the sweeps alone. *)
  Format.printf "heap over 24 jobs=2 sweeps:@.";
  heap_ratchet ();
  let respawn = respawn_cpu () in
  let scenario = scenario ~dur:"150ms" ~seed:42 in
  let conditions =
    [
      ( "nothing parked",
        fun () ->
          drain_reservoir ();
          server_run scenario );
      ( "2 parked throughout",
        fun () ->
          let idle : unit Exec.Pool.t = Exec.Pool.create ~jobs:2 () in
          Fun.protect ~finally:(fun () -> Exec.Pool.shutdown idle) (fun () -> server_run scenario)
      );
      ( "right after a sweep",
        fun () ->
          drain_reservoir ();
          sweep ();
          server_run scenario );
      ( "one grace after a sweep",
        fun () ->
          drain_reservoir ();
          sweep ();
          Unix.sleepf Reservoir.grace_s;
          server_run scenario );
    ]
  in
  ignore (server_run scenario);
  let samples = List.map (fun _ -> ref []) conditions in
  for _ = 1 to repeats do
    List.iter2 (fun (_, f) acc -> acc := f () :: !acc) conditions samples
  done;
  let base_cpu = median (List.map fst !(List.hd samples)) in
  let base_wall = median (List.map snd !(List.hd samples)) in
  List.iter2
    (fun (name, _) acc ->
      let cpu = median (List.map fst !acc) in
      let lo = List.fold_left (fun a (c, _) -> Float.min a c) infinity !acc in
      let hi = List.fold_left (fun a (c, _) -> Float.max a c) 0.0 !acc in
      Format.printf "  %-24s cpu %.1f ms (min %.1f, max %.1f; %+.1f%% vs nothing parked)@." name
        (cpu *. 1e3) (lo *. 1e3) (hi *. 1e3)
        ((cpu /. base_cpu -. 1.0) *. 100.0))
    conditions samples;
  let parked_cpu = median (List.map fst !(List.nth samples 1)) in
  let rate = (parked_cpu -. base_cpu) /. base_wall in
  Format.printf
    "respawn %.0f us / tax %.3f CPU s per wall s (2 domains) = break-even grace %s (built in: \
     %.0f ms)@."
    (respawn *. 1e6) rate
    (if rate > 0.0 then Printf.sprintf "%.0f ms" (respawn /. rate *. 1e3) else "unbounded")
    (Reservoir.grace_s *. 1e3);
  Bench_report.perf "reservoir_respawn_us" (respawn *. 1e6);
  Bench_report.perf "reservoir_parked_tax_rate" rate
