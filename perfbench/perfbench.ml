(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
                                       (DIR defaults to .bench_build/perfbench)
     perfbench --describe [--seed N]

   With --trace 0 it runs the workload repeatedly for S seconds, timing
   a few set-ups before every run, and prints the end-to-end metrics;
   with --trace 1 it runs the workload once untraced and once traced,
   records spans around every layer call, runs the isolated layer
   probes, writes the spans to DIR and prints the per-layer metrics.  Either way the last line of standard output
   is one JSON object: correct, attempted, failed, metrics.  A failed
   correctness check exits 1 with every operation counted failed. *)

open Measure
open Workloads

(* ------------------------------------------------------------------ *)
(* Declared metrics                                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("host_peak_heap_mb", "MB", "lower");
    ("lat_p50_us", "us", "lower");
    ("lat_p99_us", "us", "lower");
    ("slo_miss_frac", "ratio", "lower");
    ("goodput_krps", "krps", "higher");
  ]

let per_layer =
  [
    ("scenario.parse_us", "us", "lower");
    ("scenario.lower_us", "us", "lower");
    ("workload.sample_ns_per_req", "ns", "lower");
    ("engine.events", "count", "lower");
    ("engine.ns_per_event", "ns", "lower");
    ("engine.minor_words_per_event", "words", "lower");
    ("engine.heap_ns_per_event_d64", "ns", "lower");
    ("engine.heap_ns_per_event_d4k", "ns", "lower");
    ("engine.heap_ns_per_event_d32k", "ns", "lower");
    ("utimer.interrupts_per_req", "ratio", "lower");
    ("utimer.spurious_frac", "ratio", "lower");
    ("preemptible.preemptions_per_req", "ratio", "lower");
    ("preemptible.worker_busy_frac", "ratio", "lower");
    ("preemptible.dispatch_queue_hwm", "count", "lower");
    ("preemptible.ctx_high_water", "count", "lower");
    ("preemptible.rqueue_ns_per_op", "ns", "lower");
    ("preemptible.quantum_mean_us", "us", "higher");
    ("preemptible.quantum_changes", "count", "lower");
    ("preemptible.controller_observe_ns", "ns", "lower");
    ("preemptible.core_service_frac", "ratio", "higher");
    ("preemptible.core_sched_frac", "ratio", "lower");
    ("preemptible.core_preempt_frac", "ratio", "lower");
    ("preemptible.core_wasted_frac", "ratio", "lower");
    ("preemptible.core_idle_frac", "ratio", "higher");
    ("preemptible.lat_dispatch_us_mean", "us", "lower");
    ("preemptible.lat_dispatch_us_p99", "us", "lower");
    ("preemptible.lat_sched_us_mean", "us", "lower");
    ("preemptible.lat_sched_us_p99", "us", "lower");
    ("preemptible.lat_service_us_mean", "us", "lower");
    ("preemptible.lat_service_us_p99", "us", "lower");
    ("preemptible.lat_preempted_us_mean", "us", "lower");
    ("preemptible.lat_preempted_us_p99", "us", "lower");
    ("preemptible.slo_load_x", "x", "higher");
    ("guard.shed_frac", "ratio", "lower");
    ("guard.expired_frac", "ratio", "lower");
    ("guard.timeouts", "count", "lower");
    ("cluster.imbalance", "ratio", "lower");
    ("cluster.stolen_per_kreq", "1/kreq", "lower");
    ("cluster.sketch_merge_us", "us", "lower");
    ("baselines.shinjuku_ns_per_event", "ns", "lower");
    ("baselines.libinger_ns_per_event", "ns", "lower");
    ("baselines.nopreempt_ns_per_event", "ns", "lower");
    ("exec.tasks", "count", "lower");
    ("exec.occupancy", "ratio", "higher");
    ("exec.task_wait_ms_max", "ms", "lower");
    ("exec.task_max_ms", "ms", "lower");
    ("exec.point_fixed_ms", "ms", "lower");
    ("obs.trace_overhead_frac", "ratio", "lower");
    ("obs.sketch_add_ns", "ns", "lower");
    ("stat.summary_record_ns", "ns", "lower");
    ("stat.report_ms", "ms", "lower");
    ("fiber_rt.preemptions_per_req", "ratio", "lower");
    ("fiber_rt.cpu_overhead_frac", "ratio", "lower");
    ("fiber_rt.pool_create_ms", "ms", "lower");
    ("fiber_rt.pool_shutdown_ms", "ms", "lower");
    ("fiber_rt.gen_late_us_p50", "us", "lower");
    ("fiber_rt.gen_late_us_p99", "us", "lower");
    ("fiber_rt.start_lag_us_p50", "us", "lower");
    ("fiber_rt.start_lag_us_p99", "us", "lower");
    ("fiber_rt.preempt_lag_us_p50", "us", "lower");
    ("fiber_rt.preempt_lag_us_p99", "us", "lower");
    ("fiber_rt.deque_ns_per_op", "ns", "lower");
    ("fiber_rt.deque_steal_ns", "ns", "lower");
    ("trace.dropped", "count", "lower");
  ]

let unit_of table name =
  match List.find_opt (fun (n, _, _) -> n = name) table with
  | Some (_, u, _) -> u
  | None -> failwith ("perfbench: undeclared metric " ^ name)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  out_dir : string;
  describe : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]\n\
    \       perfbench --describe [--seed N]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 42L;
        seconds = 10.0;
        trace = false;
        out_dir = Filename.concat ".bench_build" "perfbench";
        describe = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> (
      match Int64.of_string_opt v with
      | Some s -> a := { !a with seed = s }; go rest
      | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> a := { !a with seconds = s }; go rest
      | _ -> usage ())
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> a := { !a with trace = false }; go rest
      | "1" -> a := { !a with trace = true }; go rest
      | _ -> usage ())
    | "--out-dir" :: v :: rest -> a := { !a with out_dir = v }; go rest
    | "--describe" :: rest -> a := { !a with describe = true }; go rest
    (* Test hook: pretend the request ledger lost N requests, so the
       conservation checks and the failure path run end to end. *)
    | "--ledger-error" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n -> Workloads.ledger_error := n; go rest
      | None -> usage ())
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let print_checks checks =
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-44s %s\n" name (if ok then "ok" else "FAILED"))
    checks

let finish ~checks ~attempted ~failed metrics =
  let correct = List.for_all snd checks in
  Printf.printf "checks:\n";
  print_checks checks;
  Printf.printf "metrics:\n";
  List.iter pp_metric metrics;
  Printf.printf "verdict: %s  attempted=%d failed=%d\n"
    (if correct then "correct" else "INCORRECT")
    attempted
    (if correct then failed else attempted);
  print_endline
    (result_line ~correct ~attempted ~failed:(if correct then failed else attempted) metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* Process CPU time of one set-up: from the start of the workload to
   the point where its first request could be offered.  CPU time, not
   wall time: on the shared VM the hypervisor takes the vCPU away in
   bursts (one 1.4 s run read 2.38 s of wall time and 1.45 s of CPU),
   and the guest does not count that stolen time as the process's. *)
let setup_once d seed =
  let t0 = cpu_s () in
  let cleanup =
    match d.kind with
    | Server_adaptive ->
      let s = parse (with_seed d.spec seed) in
      validate s;
      ignore (Scenario.server_config s, Scenario.arrival_process s, Scenario.source_sampler s);
      ignore
    | Fleet_overload ->
      let s = parse (with_seed d.spec seed) in
      validate s;
      ignore (Scenario.cluster_config s, Scenario.arrival_process s, Scenario.source_sampler s);
      ignore
    | Sweep_fig8 ->
      let points = sweep_points seed in
      List.iter lower_point points;
      let pool : unit Exec.Pool.t = Exec.Pool.create ~jobs:2 () in
      fun () -> Exec.Pool.shutdown pool
    | Rt_bimodal ->
      let s, _ = rt_prepare (with_seed d.spec seed) in
      let pool = Fiber_rt.Pool.create ~quantum_ns:(rt_quantum s) ~workers:s.Scenario.workers () in
      fun () -> Fiber_rt.Pool.shutdown pool
  in
  let dt = cpu_s () -. t0 in
  cleanup ();
  dt

(* The CPU clock ticks in microseconds, as coarse as a whole set-up
   of server-adaptive, so single set-ups read in 6% steps.  Set-ups
   are therefore averaged in batches worth at least a millisecond.
   Returns a function that times one batch: (mean set-up, set-ups). *)
let setup_batch d seed =
  ignore (setup_once d seed);
  let once = median (List.init 5 (fun _ -> setup_once d seed)) in
  let batch = max 1 (int_of_float (Float.ceil (1e-3 /. Float.max once 1e-6))) in
  fun () ->
    let sum = ref 0.0 in
    for _ = 1 to batch do
      sum := !sum +. setup_once d seed
    done;
    (!sum /. float_of_int batch, batch)

let jobs = 2

let one_run d ~seed k =
  let sub = sub_seed seed k in
  match d.kind with
  | Server_adaptive ->
    fst (server_outcome d ~limit_ns:(int_of_float (d.limit_us *. 1e3)) (parse (with_seed d.spec sub)))
  | Fleet_overload -> fst (fleet_outcome d (parse (with_seed d.spec sub)))
  | Sweep_fig8 ->
    fst (sweep_outcome d ~jobs ~limit_ns:(int_of_float (d.limit_us *. 1e3)) (sweep_points sub))
  | Rt_bimodal -> fst (rt_outcome (rt_prepare (with_seed d.spec sub)))

let end_to_end_run args d =
  Printf.printf "perfbench %s seed=%Ld seconds=%g (untraced)\n" d.name args.seed args.seconds;
  Printf.printf "  spec: %s\n" (with_seed d.spec args.seed);
  (* A few set-up batches before every run, so the median set-up spans
     the whole run rather than whatever the host did in its first
     seconds. *)
  let setup = setup_batch d args.seed in
  let setups = ref [] in
  let t0 = wall_s () in
  let distinct = Option.value d.distinct ~default:max_int in
  (* Peak heap once the distinct runs are done: a fixed amount of work,
     so the reading does not grow with the number of repeats the host
     speed allows. *)
  let heap_mb = ref nan in
  let rec loop acc k =
    if k = distinct then heap_mb := peak_heap_mb ();
    if k >= 1 && (k >= distinct || d.distinct = None) && wall_s () -. t0 >= args.seconds then
      List.rev acc
    else begin
      for _ = 1 to 5 do
        setups := setup () :: !setups
      done;
      (* Start every run from a collected heap, so the peak heap is set by
         the run rather than by garbage the previous ones left. *)
      Gc.full_major ();
      let o = one_run d ~seed:args.seed (if k < distinct then k else k mod distinct) in
      Printf.printf "  run %d: offered=%d host=%.3fs cpu=%.3fs p99=%.1fus%s\n%!" k o.attempted
        o.host_s o.cpu_s
        (o.lat.p99 /. 1e3)
        (if o.digest = "" then "" else "\n    " ^ o.digest);
      loop (o :: acc) (k + 1)
    end
  in
  let runs = loop [] 0 in
  let nd = min distinct (List.length runs) in
  let first = List.filteri (fun i _ -> i < nd) runs in
  (* Repeats of a sub-seed must reproduce its simulated statistics. *)
  let repeat_ok =
    List.for_all
      (fun (i, o) -> o.digest = (List.nth runs (i mod nd)).digest)
      (List.mapi (fun i o -> (i, o)) runs)
  in
  let sumi f l = List.fold_left (fun a o -> a + f o) 0 l in
  let basis = match d.kind with Rt_bimodal -> runs | _ -> first in
  (* Latency: the median over the distinct runs of each run's
     percentile as the program reports it, so one sub-seed whose run goes
     bad (1 in ~100 sweeps backlogs a LibPreemptible point) cannot move
     it.  The p99.9 is printed with its sample count but not gated: on
     sweep-fig8 it swung from 1.17 to 1.56 ms across four seeds, and on
     rt-bimodal by 16%. *)
  let q f = median (List.map (fun (o : outcome) -> f o.lat) basis) in
  let n = sumi (fun (o : outcome) -> o.lat.n) basis in
  Printf.printf "  p99.9 %.1f us (n=%d)\n" (q (fun l -> l.p999) /. 1e3) n;
  let lat_metrics =
    [
      metric ~samples:n "lat_p50_us" "us" (q (fun l -> l.p50) /. 1e3);
      metric ~samples:n "lat_p99_us" "us" (q (fun l -> l.p99) /. 1e3);
    ]
  in
  let slos = List.filter_map (fun (o : outcome) -> o.slo) basis in
  let slo_metrics =
    if List.length slos < List.length basis then begin
      print_endline "  slo_miss_frac, goodput_krps: not measured (no per-request latencies)";
      []
    end
    else
      let sum f = List.fold_left (fun a x -> a + f x) 0 slos in
      [
        metric ~samples:(sum (fun x -> x.miss_of)) "slo_miss_frac" "ratio"
          (idiv (sum (fun x -> x.miss)) (sum (fun x -> x.miss_of)));
        metric ~samples:(sum (fun x -> x.good)) "goodput_krps" "krps"
          (float_of_int (sum (fun x -> x.good))
          /. List.fold_left (fun a x -> a +. x.good_s) 0.0 slos
          /. 1e3);
      ]
  in
  (* Host speed, printed but not gated: on the shared VM it followed
     the neighbours.  Each distinct run counts with the median time of
     its repeats; the distinct runs are pooled because their speeds
     differ (one sub-seed ran 10% faster than its siblings on every
     repeat). *)
  let per_host_s f =
    let ts = Array.make nd [] in
    List.iteri (fun i o -> ts.(i mod nd) <- f o :: ts.(i mod nd)) runs;
    float_of_int (sumi (fun o -> o.attempted) first) /. Array.fold_left (fun a l -> a +. median l) 0.0 ts
  in
  Printf.printf "  host_req_per_s %.0f req/s, host_req_per_cpu_s %.0f req/cpu_s (n=%d, not gated)\n"
    (per_host_s (fun o -> o.host_s)) (per_host_s (fun o -> o.cpu_s)) (List.length runs);
  let metrics =
    [
      metric ~samples:(sumi snd !setups) "setup_s" "s" (median (List.map fst !setups));
      metric "host_peak_heap_mb" "MB"
        (if Float.is_nan !heap_mb then peak_heap_mb () else !heap_mb);
    ]
    @ lat_metrics @ slo_metrics
  in
  if nd > 0 && (List.hd first).digest <> "" then begin
    Printf.printf "simulated-statistics digest (%d distinct sub-seeds):\n" nd;
    List.iteri (fun i o -> Printf.printf "  [seed %Ld] %s\n" (sub_seed args.seed i) o.digest) first
  end;
  let checks =
    List.concat_map (fun o -> List.map fst o.checks) runs
    |> List.sort_uniq compare
    |> List.map (fun n -> (n, List.for_all (fun o -> List.assoc_opt n o.checks <> Some false) runs))
  in
  let checks =
    checks
    @ [
        ("repeated sub-seeds reproduce their statistics", repeat_ok);
        ( "every end-to-end metric finite and non-zero",
          List.for_all (fun m -> Float.is_finite m.value && m.value > 0.0) metrics );
      ]
  in
  finish ~checks ~attempted:(sumi (fun o -> o.attempted) runs)
    ~failed:(sumi (fun o -> o.failed) runs) metrics

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let traced_run args d =
  Printf.printf "perfbench %s seed=%Ld (traced)\n%!" d.name args.seed;
  let layer = Hashtbl.create 64 in
  let set name v = ignore (unit_of per_layer name); Hashtbl.replace layer name v in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  let both_checks (o : outcome) (ot : outcome) =
    List.iter (fun (n, ok) -> check ("untraced: " ^ n) ok) o.checks;
    List.iter (fun (n, ok) -> check ("traced: " ^ n) ok) ot.checks
  in
  let attempted = ref 0 and failed = ref 0 in
  let count (o : outcome) = attempted := !attempted + o.attempted; failed := !failed + o.failed in
  (* Untraced reference run: spans off. *)
  Span.enabled := false;
  let limit_ns = int_of_float (d.limit_us *. 1e3) in
  let seed = args.seed in
  let text = with_seed d.spec seed in
  (* Spans carry the id of the run they belong to: 1 the set-ups, 2 the
     traced workload run and its probes, 3 the sweep's jobs=1 reference,
     4 the sweep's fixed-cost probe.  Set-up spans: five set-ups, with
     parse/validate/lower timed in each. *)
  let setup_spans () =
    Span.enabled := true;
    Span.run_id := 1;
    for _ = 1 to 5 do
      match d.kind with
      | Sweep_fig8 ->
        List.iter
          (fun p -> Span.with_ "scenario.lower" (fun () -> lower_point p))
          (sweep_points seed)
      | Rt_bimodal -> ignore (rt_prepare text)
      | Server_adaptive ->
        let s = parse text in
        validate s;
        Span.with_ "scenario.lower" (fun () ->
            ignore (Scenario.server_config s, Scenario.arrival_process s, Scenario.source_sampler s))
      | Fleet_overload ->
        let s = parse text in
        validate s;
        Span.with_ "scenario.lower" (fun () ->
            ignore (Scenario.cluster_config s, Scenario.arrival_process s, Scenario.source_sampler s))
    done;
    let spans = Span.all () in
    let per name = float_of_int (List.fold_left (fun a s -> a + Span.duration s) 0 (Span.by_name spans name)) /. 5.0 in
    set "scenario.parse_us" (per "scenario.parse" /. 1e3);
    set "scenario.lower_us" (per "scenario.lower" /. 1e3);
    Span.run_id := 2
  in
  let obs_probes ~n =
    Span.with_ "probe.obs" (fun () ->
        set "obs.sketch_add_ns" (Probes.sketch_add_ns ~n:(min n 1_000_000));
        set "stat.summary_record_ns" (Probes.summary_record_ns ~n:(min n 1_000_000));
        set "stat.report_ms" (Probes.stat_report_ms ~n))
  in
  let workload_probe s ~n =
    Span.with_ "probe.workload" (fun () ->
        set "workload.sample_ns_per_req" (Probes.workload_sample_ns_per_req s ~n:(max 1000 (min n 1_000_000))))
  in
  let engine_probes ~events =
    Span.with_ "probe.engine" (fun () ->
        let ev = max 200_000 (min events 2_000_000) in
        set "engine.heap_ns_per_event_d64" (Probes.engine_heap_ns_per_event ~depth:64 ~events:ev);
        set "engine.heap_ns_per_event_d4k" (Probes.engine_heap_ns_per_event ~depth:4096 ~events:ev);
        set "engine.heap_ns_per_event_d32k" (Probes.engine_heap_ns_per_event ~depth:32768 ~events:ev))
  in
  let server_layers ?(windows = []) ~quantum (rs : Preemptible.Server.result list) =
    let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
    let offered = sum (fun r -> r.Preemptible.Server.offered) in
    set "utimer.interrupts_per_req" (idiv (sum (fun r -> r.timer_interrupts)) offered);
    set "utimer.spurious_frac" (idiv (sum (fun r -> r.spurious_interrupts)) (sum (fun r -> r.timer_interrupts)));
    set "preemptible.preemptions_per_req" (idiv (sum (fun r -> r.preemptions)) offered);
    set "preemptible.worker_busy_frac" (mean (List.map (fun r -> r.Preemptible.Server.worker_busy_frac) rs));
    set "preemptible.dispatch_queue_hwm" (float_of_int (List.fold_left (fun a r -> max a r.Preemptible.Server.dispatch_queue_hwm) 0 rs));
    set "preemptible.ctx_high_water" (float_of_int (List.fold_left (fun a r -> max a r.Preemptible.Server.ctx_high_water) 0 rs));
    let hwm = List.fold_left (fun a r -> max a r.Preemptible.Server.dispatch_queue_hwm) 0 rs in
    Span.with_ "probe.rqueue" (fun () ->
        set "preemptible.rqueue_ns_per_op" (Probes.rqueue_ns_per_op ~depth:hwm ~ops:1_000_000));
    (match windows with
    | [] -> set "preemptible.quantum_mean_us" (float_of_int quantum /. 1e3)
    | _ ->
      let qs = List.map snd windows in
      set "preemptible.quantum_mean_us" (mean (List.map float_of_int qs) /. 1e3);
      let changes, _ = List.fold_left (fun (c, prev) q -> ((if q <> prev then c + 1 else c), q)) (0, List.hd qs) qs in
      set "preemptible.quantum_changes" (float_of_int changes))
  in
  let controller_probe (s : Scenario.t) windows =
    match s.Scenario.quantum with
    | Scenario.Adaptive { init_ns; ctl } ->
      Span.with_ "probe.controller" (fun () ->
          set "preemptible.controller_observe_ns"
            (Probes.controller_observe_ns ~config:ctl ~max_load_per_s:(Scenario.capacity_rps s)
               ~init_ns (List.map fst windows)))
    | _ -> ()
  in
  (* Sim-time attribution from telemetry and the request-lifecycle trace. *)
  let attribution (rs : Preemptible.Server.result list) =
    let cores =
      List.concat_map
        (fun r -> match r.Preemptible.Server.telemetry with Some t -> Array.to_list t.Preemptible.Telemetry.t_cores | None -> [])
        rs
    in
    let tot f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cores) in
    let open Preemptible.Telemetry in
    let elapsed = tot (fun c -> c.service_ns + c.sched_ns + c.preempt_ns + c.idle_ns) in
    set "preemptible.core_service_frac" (div (tot (fun c -> c.service_ns)) elapsed);
    set "preemptible.core_sched_frac" (div (tot (fun c -> c.sched_ns)) elapsed);
    set "preemptible.core_preempt_frac" (div (tot (fun c -> c.preempt_ns)) elapsed);
    set "preemptible.core_wasted_frac" (div (tot (fun c -> c.wasted_ns)) elapsed);
    set "preemptible.core_idle_frac" (div (tot (fun c -> c.idle_ns)) elapsed);
    let comps =
      List.concat_map
        (fun r ->
          match r.Preemptible.Server.trace with
          | Some t -> (Obs.Breakdown.of_trace t).Obs.Breakdown.requests
          | None -> [])
        rs
    in
    let dropped =
      List.fold_left
        (fun a r -> match r.Preemptible.Server.trace with Some t -> a + Obs.Trace.dropped t | None -> a)
        0 rs
    in
    set "trace.dropped" (float_of_int dropped);
    let comp name f =
      let v = sorted_of_list (List.map (fun c -> float_of_int (f c) /. 1e3) comps) in
      set ("preemptible.lat_" ^ name ^ "_us_mean") (mean (Array.to_list v));
      set ("preemptible.lat_" ^ name ^ "_us_p99") (quantile_sorted v 0.99)
    in
    if comps <> [] then begin
      let open Obs.Breakdown in
      comp "dispatch" (fun c -> c.dispatch_ns);
      comp "sched" (fun c -> c.sched_ns);
      comp "service" (fun c -> c.service_ns);
      comp "preempted" (fun c -> c.preempted_ns)
    end;
    Printf.printf "  breakdown: %d complete request lifecycles, %d trace events dropped\n"
      (List.length comps) dropped
  in
  let same_server (a : Preemptible.Server.result) (b : Preemptible.Server.result) =
    a.offered = b.offered && a.completed = b.completed && a.shed = b.shed
    && a.dropped = b.dropped && a.cancelled = b.cancelled && a.all = b.all && a.lc = b.lc
    && a.preemptions = b.preemptions && a.timer_interrupts = b.timer_interrupts
    && a.spurious_interrupts = b.spurious_interrupts
  in
  let overhead ~untraced ~traced =
    set "obs.trace_overhead_frac" ((traced /. untraced) -. 1.0);
    Printf.printf "  host wall: untraced %.3fs traced %.3fs\n" untraced traced
  in
  (* Real cores: an rt-bimodal schedule run untraced by the library's
     own executor (Scenario.run_rt), then replayed on Fiber_rt.Pool by
     the benchmark's own dispatcher, which records submit and start
     instants, then the isolated fiber_rt probes. *)
  let fiber_rt_layer ~label (s, schedule) =
    let o, ((r : Fiber_rt.Sched.result), service_ns) = rt_outcome (s, schedule) in
    count o;
    List.iter (fun (n, ok) -> check (label ^ "untraced: " ^ n) ok) o.checks;
    let rt = Rt.replay ~workers:s.Scenario.workers ~quantum_ns:(rt_quantum s) schedule in
    attempted := !attempted + rt.Rt.offered;
    failed := !failed + rt.Rt.failed + (rt.Rt.offered - rt.Rt.completed);
    check (label ^ "traced: completed=offered") (rt.Rt.completed + !ledger_error = rt.Rt.offered);
    check (label ^ "traced: failed=0") (rt.Rt.failed = 0);
    if label = "" then overhead ~untraced:o.host_s ~traced:(float_of_int rt.Rt.wall_ns /. 1e9);
    Printf.printf "  rt latency (Scenario.run_rt): p50 %.1f us, p99 %.1f us (n=%d)\n"
      (o.lat.p50 /. 1e3) (o.lat.p99 /. 1e3) o.lat.n;
    set "fiber_rt.preemptions_per_req" (idiv r.preemptions r.offered);
    set "fiber_rt.cpu_overhead_frac" ((o.cpu_s *. 1e9 /. float_of_int service_ns) -. 1.0);
    let us_pct name a =
      let v = Array.map (fun x -> float_of_int x /. 1e3) a in
      Array.sort compare v;
      set (name ^ "_p50") (quantile_sorted v 0.5);
      set (name ^ "_p99") (quantile_sorted v 0.99);
      Printf.printf "  %s: p50 %.1f us, p99 %.1f us (n=%d)\n" name (quantile_sorted v 0.5)
        (quantile_sorted v 0.99) (Array.length v)
    in
    us_pct "fiber_rt.gen_late_us" rt.Rt.submit_late_ns;
    us_pct "fiber_rt.start_lag_us" rt.Rt.start_lag_ns;
    let quantum_ns = rt_quantum s in
    Span.with_ "probe.preempt_lag" (fun () ->
        us_pct "fiber_rt.preempt_lag_us" (Rt.preempt_lag_ns ~quantum_ns ~trials:200));
    Span.with_ "probe.pool_lifecycle" (fun () ->
        for _ = 1 to 5 do
          let p =
            Span.with_ "fiber_rt.pool_create" (fun () ->
                Fiber_rt.Pool.create ~quantum_ns ~workers:s.Scenario.workers ())
          in
          Span.with_ "fiber_rt.shutdown" (fun () -> Fiber_rt.Pool.shutdown p)
        done);
    let spans = Span.all () in
    let med name =
      median (List.map (fun s -> float_of_int (Span.duration s)) (Span.by_name spans name)) /. 1e6
    in
    set "fiber_rt.pool_create_ms" (med "fiber_rt.pool_create");
    set "fiber_rt.pool_shutdown_ms" (med "fiber_rt.shutdown");
    Span.with_ "probe.deque" (fun () ->
        set "fiber_rt.deque_ns_per_op" (Probes.deque_ns_per_op ~n:100_000);
        set "fiber_rt.deque_steal_ns" (Probes.deque_steal_ns ~n:100_000));
    if label = "" then begin
      workload_probe s ~n:r.offered;
      obs_probes ~n:r.completed
    end;
    Printf.printf "  rt: offered=%d completed=%d preemptions=%d\n" r.offered r.completed
      r.preemptions
  in
  (match d.kind with
  | Server_adaptive ->
    let s = parse text in
    let o, x = server_outcome d ~limit_ns s in
    count o;
    setup_spans ();
    let ot, xt = server_outcome d ~limit_ns ~traced:true (parse text) in
    count ot;
    both_checks o ot;
    check "traced statistics equal untraced" (same_server x.sr xt.sr);
    overhead ~untraced:x.run_s ~traced:xt.run_s;
    set "engine.events" (float_of_int x.sr.sim_events);
    set "engine.ns_per_event" (x.run_s *. 1e9 /. float_of_int x.sr.sim_events);
    set "engine.minor_words_per_event" (x.minor_words /. float_of_int x.sr.sim_events);
    server_layers ~windows:x.windows ~quantum:0 [ x.sr ];
    controller_probe s x.windows;
    attribution [ xt.sr ];
    workload_probe s ~n:x.sr.offered;
    engine_probes ~events:x.sr.sim_events;
    obs_probes ~n:x.sr.completed;
    print_endline o.digest;
    (* rt-bimodal is not gated (wall-clock latency on a shared VM swings
       with CPU steal), so the real-core counterpart of this mechanism is
       measured here: rt-bimodal's schedule, shortened to one second. *)
    let rd = Option.get (find "rt-bimodal") in
    fiber_rt_layer ~label:"fiber_rt probe "
      (rt_prepare (with_seed (rd.spec ^ "; dur=1s; warmup=100ms") seed))
  | Fleet_overload ->
    let s = parse text in
    let o, x = fleet_outcome d s in
    count o;
    setup_spans ();
    let ot, xt = fleet_outcome d ~traced:true (parse text) in
    count ot;
    both_checks o ot;
    let f = x.fr.Cluster.fleet in
    check "traced statistics equal untraced"
      (Array.for_all2 same_server x.fr.Cluster.per_server xt.fr.Cluster.per_server
       && Obs.Sketch.count x.fr.Cluster.sketch = Obs.Sketch.count xt.fr.Cluster.sketch
       && Obs.Sketch.quantile x.fr.Cluster.sketch 0.999 = Obs.Sketch.quantile xt.fr.Cluster.sketch 0.999);
    overhead ~untraced:x.f_run_s ~traced:xt.f_run_s;
    set "engine.events" (float_of_int f.sim_events);
    set "engine.ns_per_event" (x.f_run_s *. 1e9 /. float_of_int f.sim_events);
    set "engine.minor_words_per_event" (x.f_minor_words /. float_of_int f.sim_events);
    let quantum = match s.Scenario.quantum with Scenario.Fixed q -> q | _ -> 0 in
    server_layers ~quantum (Array.to_list x.fr.Cluster.per_server);
    attribution (Array.to_list xt.fr.Cluster.per_server);
    let guards = Array.to_list x.fr.Cluster.per_server |> List.filter_map (fun r -> r.Preemptible.Server.guard) in
    let gsum f = List.fold_left (fun a g -> a + f g) 0 guards in
    set "guard.shed_frac" (idiv (gsum (fun g -> g.Guard.shed_total)) f.offered);
    set "guard.expired_frac" (idiv (gsum (fun g -> g.Guard.expired)) f.offered);
    set "guard.timeouts" (float_of_int (gsum (fun g -> g.Guard.client_timeouts)));
    set "cluster.imbalance" f.imbalance;
    set "cluster.stolen_per_kreq" (1e3 *. idiv f.stolen f.offered);
    Span.with_ "probe.cluster" (fun () ->
        set "cluster.sketch_merge_us"
          (Probes.sketch_merge_us ~members:f.servers ~per_member:(f.completed / max 1 f.servers)));
    workload_probe s ~n:f.offered;
    engine_probes ~events:f.sim_events;
    obs_probes ~n:f.completed;
    print_endline o.digest
  | Sweep_fig8 ->
    let points = sweep_points seed in
    let o, runs = sweep_outcome d ~jobs ~limit_ns points in
    count o;
    setup_spans ();
    let t0 = wall_s () in
    let ot, runs2 = sweep_outcome d ~jobs ~limit_ns points in
    let traced_wall = wall_s () -. t0 in
    count ot;
    overhead ~untraced:o.host_s ~traced:traced_wall;
    both_checks o ot;
    check "traced statistics equal untraced" (List.map point_key runs = List.map point_key runs2);
    (* Sequential reference: jobs=1 must reproduce jobs=2 exactly; it
       also gives per-system host cost without a sibling domain. *)
    Span.run_id := 3;
    let w0 = Gc.minor_words () and t1 = wall_s () in
    let o1, runs1 = sweep_outcome d ~jobs:1 ~limit_ns points in
    let seq_wall = wall_s () -. t1 and seq_words = Gc.minor_words () -. w0 in
    count o1;
    check "sweep jobs=2 equals jobs=1" (List.map point_key runs = List.map point_key runs1);
    let events = List.fold_left (fun a p -> a + p.x.sr.sim_events) 0 runs1 in
    set "engine.events" (float_of_int events);
    set "engine.ns_per_event" (seq_wall *. 1e9 /. float_of_int events);
    set "engine.minor_words_per_event" (seq_words /. float_of_int events);
    let per_sys sys =
      let mine = List.filter (fun p -> p.pt.sys = sys) runs1 in
      let ev = List.fold_left (fun a p -> a + p.x.sr.sim_events) 0 mine in
      let host = List.fold_left (fun a p -> a +. p.x.run_s) 0.0 mine in
      host *. 1e9 /. float_of_int (max 1 ev)
    in
    List.iter (fun sys -> set (Printf.sprintf "baselines.%s_ns_per_event" sys) (per_sys sys)) [ "shinjuku"; "libinger"; "nopreempt" ];
    let lp = List.filter (fun p -> p.pt.sys = "lp") runs in
    let rp = List.find (fun p -> p.pt.load = sweep_report_load) lp in
    server_layers ~windows:rp.x.windows ~quantum:0 (List.map (fun p -> p.x.sr) lp);
    set "preemptible.worker_busy_frac" rp.x.sr.worker_busy_frac;
    controller_probe rp.pt.spec rp.x.windows;
    set "preemptible.slo_load_x" (slo_load_x runs "lp");
    (* Exec layer from the traced jobs=2 sweep's spans. *)
    let spans = List.filter (fun s -> s.Span.run = 2) (Span.all ()) in
    (match Span.by_name spans "exec.sweep" with
    | sw :: _ ->
      let tasks = Span.by_name spans "exec.task" in
      let wall = float_of_int (Span.duration sw) in
      set "exec.tasks" (float_of_int (List.length tasks));
      set "exec.occupancy"
        (float_of_int (List.fold_left (fun a t -> a + Span.duration t) 0 tasks) /. (float_of_int jobs *. wall));
      set "exec.task_wait_ms_max"
        (float_of_int (List.fold_left (fun a t -> max a (t.Span.start_ns - sw.Span.start_ns)) 0 tasks) /. 1e6);
      set "exec.task_max_ms" (float_of_int (List.fold_left (fun a t -> max a (Span.duration t)) 0 tasks) /. 1e6)
    | [] -> ());
    Span.run_id := 4;
    Span.with_ "probe.point_fixed" (fun () ->
        let fixed =
          List.map
            (fun (sys, base) ->
              let s = parse (with_seed (Printf.sprintf "%s; src=a2; capref=4; arrival=poisson:%gx; dur=1ms" base sweep_report_load) seed) in
              median_call_ns (fun () -> run_server_spec ~limit_ns ~span:(point_span sys) s) /. 1e6)
            sweep_systems
        in
        set "exec.point_fixed_ms" (mean fixed));
    (* Request-lifecycle attribution of the reported LibPreemptible point. *)
    let xt = run_server_spec ~traced:true ~limit_ns ~span:"preemptible.run" rp.pt.spec in
    check "traced point equals untraced" (same_server rp.x.sr xt.sr);
    attribution [ xt.sr ];
    workload_probe rp.pt.spec ~n:rp.x.sr.offered;
    engine_probes ~events:rp.x.sr.sim_events;
    obs_probes ~n:rp.x.sr.completed;
    print_endline o.digest
  | Rt_bimodal ->
    setup_spans ();
    fiber_rt_layer ~label:"" (rt_prepare text));
  (* Spans: write them out, then summarise self time by name. *)
  let spans = Span.all () in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p args.out_dir;
  let path = Filename.concat args.out_dir (Printf.sprintf "spans-%s-seed%Ld.json" d.name seed) in
  Obs.Json.to_file ~indent:1 (Span.to_json spans) ~path;
  Printf.printf "spans: %d written to %s\n  %-28s %6s %12s %12s\n" (List.length spans) path "span" "count" "total_ms" "self_ms";
  List.iter
    (fun m -> Printf.printf "  %-28s %6d %12.3f %12.3f\n" m.Span.s_name m.Span.count (float_of_int m.Span.total_ns /. 1e6) (float_of_int m.Span.self_ns /. 1e6))
    (Span.summarize spans);
  let missing = List.filter (fun (n, _, _) -> not (Hashtbl.mem layer n)) per_layer in
  if missing <> [] then
    Printf.printf "not exercised by %s (reported as 0): %s\n" d.name
      (String.concat " " (List.map (fun (n, _, _) -> n) missing));
  let metrics =
    List.map (fun (n, u, _) -> metric n u (Option.value (Hashtbl.find_opt layer n) ~default:0.0)) per_layer
  in
  finish ~checks:(List.rev !checks) ~attempted:!attempted ~failed:!failed metrics

(* ------------------------------------------------------------------ *)
(* Describe                                                            *)
(* ------------------------------------------------------------------ *)

let describe seed =
  let open Obs.Json in
  let strs l = List (List.map (fun s -> Str s) l) in
  let table l = List (List.map (fun (n, u, b) -> Obj [ ("name", Str n); ("unit", Str u); ("better", Str b) ]) l) in
  print_endline
    (to_string ~indent:1
       (Obj
          [
            ( "workloads",
              List
                (List.map
                   (fun d ->
                     Obj
                       [
                         ("name", Str d.name);
                         ("spec", Str d.spec);
                         ("specs", strs (spec_texts d seed));
                         ("limit_us", Num d.limit_us);
                         ("gated", Bool d.gated);
                       ])
                   defs) );
            ("end_to_end", table end_to_end);
            ("per_layer", table per_layer);
          ]))

let () =
  let args = parse_args () in
  if args.describe then describe args.seed
  else
    match find args.workload with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" args.workload
        (String.concat ", " (List.map (fun d -> d.name) defs));
      exit 2
    | Some d -> if args.trace then traced_run args d else end_to_end_run args d
