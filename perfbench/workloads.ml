(* The benchmark workloads: their specs and latency limits, and one
   measured run of each. *)

open Measure

type kind = Server_adaptive | Fleet_overload | Sweep_fig8 | Rt_bimodal

(* Reasons, layers exercised and limits are explained in declared.json;
   the tests check that it agrees with these definitions. *)
type def = {
  name : string;
  kind : kind;
  spec : string;  (** scenario text; the benchmark appends [seed=] *)
  limit_us : float;  (** latency limit of slo_miss_frac and goodput_krps *)
  distinct : int option;
      (** simulated statistics come from this many runs, seeded with
          the seed and with seeds derived from it; further runs of the
          timed loop repeat them and must reproduce them exactly.  Runs
          are kept to 1-2 s of host time so a timed loop holds many.
          [None]: every run gets a fresh seed (real cores). *)
  gated : bool;  (** listed in BENCHMARK.json *)
}

(* Fig 8's LibPreemptible configuration, and the three systems it is
   compared with, as the sweep runs them. *)
let sweep_systems =
  [
    ( "lp",
      "sys=lp; workers=4; window=10ms; quantum=adaptive:20us; \
       ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}" );
    ("shinjuku", "sys=shinjuku; workers=5; quantum=5us");
    ("libinger", "sys=libinger; workers=5; quantum=20us");
    ("nopreempt", "sys=nopreempt; workers=5; quantum=none");
  ]

let sweep_loads = [ 0.5; 0.7; 0.8; 0.85; 0.9; 0.95; 1.0; 1.05 ]
let sweep_ref_load = 0.1
let sweep_report_load = 0.9
let sweep_point = "src=a2; capref=4; dur=50ms; warmup=10ms"

let defs =
  [
    (* The paper's mechanism end to end on a shallow event heap.  4
       workers: at 16, 0.8x already builds a backlog. *)
    {
      name = "server-adaptive";
      kind = Server_adaptive;
      spec =
        "sys=lp; workers=4; quantum=adaptive; src=c; arrival=poisson:0.8x; dur=500ms; \
         warmup=50ms";
      limit_us = 100.0;
      distinct = Some 6;
      gated = true;
    };
    (* 32 cores on one engine (deep heap), guard and balancer on the
       path; the limit is the guard's client timeout. *)
    {
      name = "fleet-overload";
      kind = Fleet_overload;
      spec =
        "workers=4; quantum=5us; src=tenants:0.9(b,a2,const:40us@be); \
         arrival=diurnal:0.85x:0.3:100ms; fleet={n=8;lb=p2c;steal}; \
         guard={timeout=300us;expire;shed={q=64;target=100us;interval=500us}}; \
         dur=100ms; warmup=20ms";
      limit_us = 300.0;
      distinct = Some 4;
      gated = true;
    };
    (* Many short runs: per-run fixed cost, the pool's fan-out, the
       baselines and ksim. *)
    {
      name = "sweep-fig8";
      kind = Sweep_fig8;
      spec =
        Printf.sprintf "%s; arrival=poisson:{%s}x; systems={%s}" sweep_point
          (String.concat "," (List.map (Printf.sprintf "%g") (sweep_ref_load :: sweep_loads)))
          (String.concat "," (List.map fst sweep_systems));
      limit_us = 100.0;
      distinct = Some 24;
      gated = true;
    };
    (* Real cores.  Not gated: its wall-clock latency follows the VM's
       CPU steal; server-adaptive's traced run measures its layer. *)
    {
      name = "rt-bimodal";
      kind = Rt_bimodal;
      spec =
        "workers=1; quantum=500us; src=bimodal:100us:2ms:0.05@lc; arrival=poisson:0.6x; \
         dur=3s; warmup=300ms";
      limit_us = 5000.0;
      distinct = None;
      gated = false;
    };
  ]

let find name = List.find_opt (fun d -> d.name = name) defs

(* Sub-seed [k] of a run: the seed itself, then SplitMix-derived seeds,
   so neighbouring base seeds share no sub-seed. *)
let sub_seed seed k = if k = 0 then seed else Exec.Env.task_seed ~seed ~index:k

let with_seed text seed = Printf.sprintf "%s; seed=%Ld" text seed

let parse text =
  Span.with_ "scenario.parse" (fun () ->
      match Scenario.of_string text with
      | Ok s -> s
      | Error e -> failwith ("perfbench: bad spec: " ^ Scenario.error_to_string e))

let check_ok what = function Ok () -> () | Error m -> failwith ("perfbench: " ^ what ^ ": " ^ m)

let validate s = Span.with_ "scenario.validate" (fun () -> check_ok "validate" (Scenario.validate s))

(* The sweep's points: the 0.1x SLO-reference point of every system,
   then the Fig 8 load grid. *)
let sweep_specs seed =
  List.concat_map
    (fun (sys, base) ->
      List.map
        (fun load ->
          ( sys,
            load,
            with_seed
              (Printf.sprintf "%s; %s; arrival=poisson:%gx" base sweep_point load)
              seed ))
        (sweep_ref_load :: sweep_loads))
    sweep_systems

(* Every concrete spec text a run with [seed] hands to the library. *)
let spec_texts d seed =
  match d.kind with
  | Sweep_fig8 -> List.map (fun (_, _, t) -> t) (sweep_specs seed)
  | _ -> (
    match d.distinct with
    | Some k -> List.init k (fun i -> with_seed d.spec (sub_seed seed i))
    | None -> [ with_seed d.spec seed ])

(* ------------------------------------------------------------------ *)
(* One measured run of a workload                                      *)
(* ------------------------------------------------------------------ *)

(* Merge the latency sketches of several runs (all share the default
   geometry). *)
let merge_sketches sketches =
  let dst = Obs.Sketch.create () in
  List.iter (fun src -> Obs.Sketch.merge_into ~dst ~src) sketches;
  dst

(* Latency percentiles of one run, ns, as the program reports them. *)
type lat = { p50 : float; p99 : float; p999 : float; n : int }

let lat_of_report (r : Stat.Summary.report) = { p50 = r.p50; p99 = r.p99; p999 = r.p999; n = r.count }

let lat_of_sketch sk =
  let q = Obs.Sketch.quantile sk in
  { p50 = q 0.5; p99 = q 0.99; p999 = q 0.999; n = Obs.Sketch.count sk }

(* Requests that missed the latency limit.  [None] where the program
   reports no per-request latencies to count them from. *)
type slo = {
  miss : int;  (** not done + completed past the limit, over [miss_of] *)
  miss_of : int;
  good : int;  (** measured completions within the limit *)
  good_s : float;  (** seconds [good] was counted over *)
}

type outcome = {
  attempted : int;  (** offered requests *)
  failed : int;
      (** neither completed nor turned away by the guard (shed, dropped,
          cancelled): requests the program lost (+ rt failures) *)
  slo : slo option;
  lat : lat;
  host_s : float;
  cpu_s : float;
  digest : string;  (** simulated statistics; "" for real cores *)
  checks : (string * bool) list;
}

(* Requests the ledger is told to have lost (test hook; 0 in every
   real run). *)
let ledger_error = ref 0

let conservation (r : Preemptible.Server.result) =
  r.offered = r.completed + r.cancelled + r.dropped + r.shed + !ledger_error

(* Share of measured completions that landed after arrivals stopped:
   the backlog the run left behind. *)
let drain_share (r : Preemptible.Server.result) =
  let in_window = r.throughput_rps *. float_of_int r.measured_ns /. 1e9 in
  div (float_of_int r.completed -. in_window) (float_of_int (max 1 r.offered))

let backlog_limit = 0.05

(* Offered but never completed: shed, dropped, cancelled or still
   outstanding. *)
let not_done (r : Preemptible.Server.result) = r.offered - r.completed

(* Offered, never completed and never turned away by the guard.  Shed,
   dropped and cancelled requests are the guard's answer to overload:
   they count as SLO misses, not as failed operations. *)
let lost (r : Preemptible.Server.result) = r.offered - r.completed - r.cancelled - r.dropped - r.shed

(* Window statistics: a queue or median that ends far above where it
   started is a growing backlog, never a slow number.  The first and
   last quarter of the measured windows (at least one window each) are
   compared; fewer than two measured windows cannot show a trend and
   fail the check. *)
let windows_steady ~warmup_ns windows =
  let ws =
    List.filter (fun (s, _) -> s.Preemptible.Stats_window.window_start_ns >= warmup_ns) windows
  in
  let n = List.length ws in
  n >= 2
  &&
  let arr = Array.of_list ws in
  let q = max 1 (n / 4) in
  let avg f lo = mean (List.init q (fun i -> f (fst arr.(lo + i)))) in
  let qlen s = float_of_int s.Preemptible.Stats_window.max_qlen in
  let p50 s = s.Preemptible.Stats_window.median_ns in
  let q0 = avg qlen 0 and q1 = avg qlen (n - q) in
  let m0 = avg p50 0 and m1 = avg p50 (n - q) in
  not (q1 > (4.0 *. q0) +. 64.0 || (m0 > 0.0 && m1 > 20.0 *. m0))

type server_run = {
  sr : Preemptible.Server.result;
  late : int;
  windows : (Preemptible.Stats_window.snapshot * int) list;  (** oldest first *)
  minor_words : float;
  run_s : float;
  run_cpu_s : float;
}

let traced_config (cfg : Preemptible.Server.config) ~capacity =
  {
    cfg with
    Preemptible.Server.telemetry = Some Preemptible.Telemetry.default;
    trace = Some { Obs.Trace.capacity; categories = [ Obs.Trace.Request ] };
  }

(* Run one single-server scenario; [span] names the layer call. *)
let run_server_spec ?(traced = false) ?sketch ~limit_ns ~span (s : Scenario.t) =
  let late = ref 0 in
  let windows = ref [] in
  let record =
    match sketch with
    | Some sk ->
      fun latency_ns cls ->
        if cls = Workload.Request.Latency_critical then
          Obs.Sketch.add sk (float_of_int latency_ns)
    | None -> fun _ _ -> ()
  in
  let probes =
    {
      Preemptible.Server.no_probes with
      on_complete =
        (fun ~now:_ ~latency_ns ~cls ->
          if latency_ns > limit_ns then incr late;
          record latency_ns cls);
      on_window = (fun snap ~quantum_ns -> windows := (snap, quantum_ns) :: !windows);
    }
  in
  let run =
    match s.Scenario.system with
    | Scenario.Lp | Scenario.Lp_nouintr ->
      let cfg =
        Span.with_ "scenario.lower" (fun () -> Scenario.server_config s)
      in
      let cfg = if traced then traced_config cfg ~capacity:(1 lsl 20) else cfg in
      let arrival = Scenario.arrival_process s and source = Scenario.source_sampler s in
      fun () ->
        Preemptible.Server.run ~probes ~warmup_ns:s.Scenario.warmup_ns cfg ~arrival ~source
          ~duration_ns:s.Scenario.duration_ns
    | _ -> fun () -> Scenario.run_server ~probes s
  in
  let w0 = Gc.minor_words () and c0 = cpu_s () and t0 = wall_s () in
  let sr = Span.with_ span run in
  let run_s = wall_s () -. t0 and run_cpu_s = cpu_s () -. c0 in
  let minor_words = Gc.minor_words () -. w0 in
  { sr; late = !late; windows = List.rev !windows; minor_words; run_s; run_cpu_s }

let lc_report (r : Preemptible.Server.result) =
  match r.lc with Some l -> l | None -> r.all

let server_digest name x =
  let l = lc_report x.sr in
  Printf.sprintf
    "digest %s: offered=%d completed=%d engine.events=%d preemptions=%d sim_p50_ns=%.0f \
     sim_p99_ns=%.0f minor_words=%.0f"
    name x.sr.offered x.sr.completed x.sr.sim_events x.sr.preemptions l.p50 l.p99 x.minor_words

let server_outcome d ~limit_ns ?traced s =
  let x = run_server_spec ?traced ~limit_ns ~span:"preemptible.run" s in
  let r = x.sr in
  ( {
      attempted = r.offered;
      failed = lost r;
      slo =
        Some
          {
            miss = not_done r + x.late;
            miss_of = r.offered;
            good = r.completed - x.late;
            good_s = float_of_int r.measured_ns /. 1e9;
          };
      lat = lat_of_report (lc_report r);
      host_s = x.run_s;
      cpu_s = x.run_cpu_s;
      digest = server_digest d.name x;
      checks =
        [
          ("conservation", conservation r);
          ("completed>0", r.completed > 0);
          ("no growing backlog (drain share)", drain_share r < backlog_limit);
          ( "no growing backlog (window qlen/p50)",
            windows_steady ~warmup_ns:s.Scenario.warmup_ns x.windows );
        ];
    },
    x )

(* ---- fleet ---- *)

type fleet_run = {
  fr : Cluster.result;
  f_minor_words : float;
  f_run_s : float;
  f_run_cpu_s : float;
}

let run_fleet_spec ?(traced = false) (s : Scenario.t) =
  let cfg = Span.with_ "scenario.lower" (fun () -> Scenario.cluster_config s) in
  let cfg =
    if traced then
      {
        cfg with
        Cluster.members = Array.map (traced_config ~capacity:(1 lsl 18)) cfg.Cluster.members;
      }
    else cfg
  in
  let arrival = Scenario.arrival_process s and source = Scenario.source_sampler s in
  let w0 = Gc.minor_words () and c0 = cpu_s () and t0 = wall_s () in
  let fr =
    Span.with_ "cluster.run" (fun () ->
        Cluster.run ~warmup_ns:s.Scenario.warmup_ns cfg ~arrival ~source
          ~duration_ns:s.Scenario.duration_ns)
  in
  let f_run_s = wall_s () -. t0 and f_run_cpu_s = cpu_s () -. c0 in
  { fr; f_minor_words = Gc.minor_words () -. w0; f_run_s; f_run_cpu_s }

let fleet_digest name x =
  let f = x.fr.Cluster.fleet in
  Printf.sprintf
    "digest %s: offered=%d completed=%d shed=%d engine.events=%d preemptions=%d \
     sim_p50_us=%.3f sim_p99_us=%.3f minor_words=%.0f"
    name f.offered f.completed f.shed f.sim_events
    (Array.fold_left (fun a r -> a + r.Preemptible.Server.preemptions) 0 x.fr.Cluster.per_server)
    f.p50_us f.p99_us x.f_minor_words

(* A stolen request stays offered at its victim and completes at its
   thief, so member [i] is off by (stolen out - stolen in): the
   imbalances cancel across the fleet and their absolute sum is at most
   two per migration. *)
let member_conservation (fr : Cluster.result) =
  let gaps =
    Array.map
      (fun (r : Preemptible.Server.result) ->
        r.offered - r.completed - r.cancelled - r.dropped - r.shed)
      fr.Cluster.per_server
  in
  Array.fold_left ( + ) 0 gaps + !ledger_error = 0
  && Array.fold_left (fun a g -> a + abs g) 0 gaps <= 2 * fr.Cluster.fleet.stolen

(* The fleet's LC latency: each member's LC percentile as the member
   reports it, averaged over the members.  Cluster merges only the
   all-class sketch, so no fleet-wide LC quantile is reported. *)
let members_lc (fr : Cluster.result) =
  let ls = Array.to_list (Array.map lc_report fr.Cluster.per_server) in
  let avg f = mean (List.map f ls) in
  {
    p50 = avg (fun (l : Stat.Summary.report) -> l.p50);
    p99 = avg (fun l -> l.p99);
    p999 = avg (fun l -> l.p999);
    n = List.fold_left (fun a (l : Stat.Summary.report) -> a + l.count) 0 ls;
  }

let fleet_outcome d ?traced s =
  let x = run_fleet_spec ?traced s in
  let f = x.fr.Cluster.fleet in
  let not_done = f.offered - f.completed in
  (* The limit is the guard's client timeout, so the completions past
     it are exactly those that reached no waiting client. *)
  let late = f.completed - f.goodput in
  let drain =
    Array.fold_left
      (fun a r -> a +. (drain_share r *. float_of_int r.Preemptible.Server.offered))
      0.0 x.fr.Cluster.per_server
    /. float_of_int (max 1 f.offered)
  in
  ( {
      attempted = f.offered;
      failed = not_done - f.cancelled - f.dropped - f.shed;
      slo =
        Some
          {
            miss = not_done + late;
            miss_of = f.offered;
            good = f.goodput;
            good_s = float_of_int f.measured_ns /. 1e9;
          };
      lat = members_lc x.fr;
      host_s = x.f_run_s;
      cpu_s = x.f_run_cpu_s;
      digest = fleet_digest d.name x;
      checks =
        [
          ( "conservation (every member, up to migrations)",
            member_conservation x.fr );
          ( "conservation (fleet)",
            f.offered = f.completed + f.cancelled + f.dropped + f.shed + !ledger_error );
          ("completed>0", f.completed > 0);
          ("no growing backlog (drain share)", drain < backlog_limit);
          ( "limit equals the guard's client timeout",
            match s.Scenario.guard with
            | Some { Scenario.g_timeout_ns = Some t; _ } -> float_of_int t = d.limit_us *. 1e3
            | _ -> false );
        ];
    },
    x )

(* ---- sweep ---- *)

type point = {
  sys : string;
  load : float;
  spec : Scenario.t;
}

type point_run = { pt : point; x : server_run; curve_lat : Obs.Sketch.t option }

(* The sweep's latency metrics describe LibPreemptible below capacity:
   its grid points from 0.5x to 0.9x pooled.  Points at and past
   capacity build backlogs whose tails swing with the seed; they count
   through preemptible.slo_load_x instead. *)
let on_lp_curve pt =
  pt.sys = "lp" && pt.load > sweep_ref_load && pt.load <= sweep_report_load

let sweep_points seed =
  List.map
    (fun (sys, load, text) ->
      let spec = parse text in
      validate spec;
      { sys; load; spec })
    (sweep_specs seed)

(* What the library lowers a sweep point to before it runs: baselines
   build their own configs inside [run_server]. *)
let lower_point p =
  if p.sys = "lp" then ignore (Scenario.server_config p.spec);
  ignore (Scenario.arrival_process p.spec, Scenario.source_sampler p.spec)

let point_span sys = if sys = "lp" then "preemptible.run" else "baselines." ^ sys ^ ".run"

let run_point ~limit_ns ?parent ?traced pt =
  Span.with_ ?parent "exec.task" (fun () ->
      let curve_lat = if on_lp_curve pt then Some (Obs.Sketch.create ()) else None in
      let x =
        run_server_spec ?traced ?sketch:curve_lat ~limit_ns ~span:(point_span pt.sys) pt.spec
      in
      { pt; x; curve_lat })

let run_sweep ~jobs ~limit_ns points =
  Span.with_ "exec.sweep" (fun () ->
      let parent = Span.current () in
      Exec.Sweep.run ~jobs (run_point ~limit_ns ~parent) points)

(* Fig 8's rule: the highest grid load where p99 <= 200x the 0.1x-load
   mean and p99.9 <= 10x that bound (the p99.9 clause rejects loads
   where a backlog starves the long requests past the 99th
   percentile). *)
let slo_load_x runs sys =
  let mine = List.filter (fun p -> p.pt.sys = sys) runs in
  match List.find_opt (fun p -> p.pt.load = sweep_ref_load) mine with
  | None -> 0.0
  | Some r ->
    let slo = 200.0 *. r.x.sr.all.mean in
    List.fold_left
      (fun best p ->
        let a = p.x.sr.Preemptible.Server.all in
        if p.pt.load <> sweep_ref_load && a.p99 <= slo && a.p999 <= 10.0 *. slo then
          Float.max best p.pt.load
        else best)
      0.0 mine

let point_key p =
  let r = p.x.sr in
  (p.pt.sys, p.pt.load, r.offered, r.completed, r.sim_events, r.preemptions, r.all.p50, r.all.p99, r.all.p999, p.x.late)

let sweep_digest name runs =
  let sum f = List.fold_left (fun a p -> a + f p) 0 runs in
  let rp = List.find (fun p -> p.pt.sys = "lp" && p.pt.load = sweep_report_load) runs in
  Printf.sprintf
    "digest %s: points=%d offered=%d completed=%d engine.events=%d preemptions=%d \
     lp_slo_load_x=%g lp%g_p50_ns=%.0f lp%g_p99_ns=%.0f minor_words=%.0f"
    name (List.length runs)
    (sum (fun p -> p.x.sr.offered))
    (sum (fun p -> p.x.sr.completed))
    (sum (fun p -> p.x.sr.sim_events))
    (sum (fun p -> p.x.sr.preemptions))
    (slo_load_x runs "lp") sweep_report_load (lc_report rp.x.sr).p50 sweep_report_load
    (lc_report rp.x.sr).p99
    (List.fold_left (fun a p -> a +. p.x.minor_words) 0.0 runs)

let sweep_outcome d ~jobs ~limit_ns points =
  let c0 = cpu_s () and t0 = wall_s () in
  let runs = run_sweep ~jobs ~limit_ns points in
  let host_s = wall_s () -. t0 and cpu = cpu_s () -. c0 in
  let sum f = List.fold_left (fun a p -> a + f p) 0 runs in
  let curve = List.filter (fun p -> on_lp_curve p.pt) runs in
  let csum f = List.fold_left (fun a p -> a + f p) 0 curve in
  let not_done_curve = csum (fun p -> not_done p.x.sr) in
  let late = csum (fun p -> p.x.late) in
  ( {
      attempted = sum (fun p -> p.x.sr.offered);
      failed = sum (fun p -> lost p.x.sr);
      slo =
        Some
          {
            miss = not_done_curve + late;
            miss_of = csum (fun p -> p.x.sr.offered);
            good = csum (fun p -> p.x.sr.completed) - late;
            good_s =
              List.fold_left (fun a p -> a +. (float_of_int p.x.sr.measured_ns /. 1e9)) 0.0 curve;
          };
      lat = lat_of_sketch (merge_sketches (List.filter_map (fun p -> p.curve_lat) curve));
      host_s;
      cpu_s = cpu;
      digest = sweep_digest d.name runs;
      checks =
        [
          ("conservation (every point)", List.for_all (fun p -> conservation p.x.sr) runs);
          ("completed>0 (every point)", List.for_all (fun p -> p.x.sr.completed > 0) runs);
        ];
    },
    runs )

(* ---- real cores ---- *)

let rt_quantum (s : Scenario.t) =
  match s.Scenario.quantum with
  | Scenario.Fixed q -> q
  | _ -> failwith "perfbench: rt workload needs a fixed quantum"

let rt_prepare text =
  let s = parse text in
  Span.with_ "scenario.validate" (fun () -> check_ok "validate_rt" (Scenario.validate_rt s));
  let schedule = Span.with_ "scenario.lower" (fun () -> Scenario.rt_schedule s) in
  (s, schedule)

(* One run of the library's own open-loop executor.  Sched.result
   reports latency percentiles but no per-request latencies, so late
   completions cannot be counted: no [slo]. *)
let rt_outcome ((s : Scenario.t), schedule) =
  let service_ns =
    Array.fold_left (fun a (it : Fiber_rt.Sched.item) -> a + it.service_ns) 0 schedule
  in
  let c0 = cpu_s () in
  let r = Span.with_ "scenario.run_rt" (fun () -> Scenario.run_rt s) in
  let cpu = cpu_s () -. c0 in
  ( {
      attempted = r.offered;
      failed = r.failed + (r.offered - r.completed);
      slo = None;
      lat = lat_of_report (Option.value r.lc ~default:r.all);
      host_s = float_of_int r.wall_ns /. 1e9;
      cpu_s = cpu;
      digest = "";
      checks =
        [
          ("completed=offered", r.completed + !ledger_error = r.offered);
          ("failed=0", r.failed = 0);
          ("completed>0", r.completed > 0);
        ];
    },
    (r, service_ns) )
