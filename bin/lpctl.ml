(* lpctl: run LibPreemptible server simulations with custom parameters
   from the command line.

     lpctl serve --system lp --workload a1 --rate 800000 --quantum 5
     lpctl run scenarios/tail_attack.scn -s seed=7
     lpctl ipc --n 100000
     lpctl timer --strategy utimer --threads 32 *)

open Cmdliner

let us = Engine.Units.us
let ms = Engine.Units.ms

(* Environment knobs are parsed with Exec.Env.getenv_nonempty so an
   empty value behaves like an unset one; declared here so every
   subcommand's --help lists the variables it honours. *)
let env_pool_trace =
  Cmd.Env.info "LP_POOL_TRACE"
    ~doc:
      "When set to a file path, multi-point sweeps export a Perfetto JSON trace of \
       pool occupancy (per-worker task spans, wall clock) there at exit."

let env_trace_out =
  Cmd.Env.info "LP_TRACE_OUT"
    ~doc:"Default output path for the Perfetto trace when $(b,--out) is not given."

let env_bench_csv =
  Cmd.Env.info "LP_BENCH_CSV"
    ~doc:"When set to a directory, also dump the result series there as CSV."

(* Shared wall-clock pool trace, mirroring the bench harness: every
   sweep in the process writes into one ring, exported at exit. *)
let pool_trace =
  lazy
    (match Exec.Env.getenv_nonempty "LP_POOL_TRACE" with
    | None -> None
    | Some path ->
      let t0 = Unix.gettimeofday () in
      let trace =
        Obs.Trace.create
          ~config:{ Obs.Trace.capacity = 1 lsl 16; categories = [ Obs.Trace.Exec ] }
          ~clock:(fun () -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
          ()
      in
      at_exit (fun () ->
          Obs.Export.perfetto_to_file trace ~path;
          Format.printf "(pool trace: %s)@." path);
      Some trace)

(* ------------------------------------------------------------------ *)
(* Flags -> scenario                                                   *)
(* ------------------------------------------------------------------ *)

(* The simulation subcommands (serve, top, trace, faults, colocate)
   translate flags into a scenario: each flag becomes one field written
   in the spec language and parsed by Scenario itself, so the
   vocabularies (systems, workloads, balancers, fault schedules) and
   every constraint live there.  The spec is validated once, runs
   through the lowering `lpctl run` uses, and is printed as a
   "# <spec>" header, so `lpctl run '<spec>'` replays any CLI run. *)

let fail msg =
  prerr_endline msg;
  exit 1

(* A flag value spliced into spec text must stay one value: a field
   separator or a comment in it would write other fields. *)
let field_value flag v =
  if String.exists (fun c -> c = ';' || c = '\n' || c = '#') v then
    fail (Printf.sprintf "%s: %S is not a single value" flag v);
  v

(* One field at a time, so an error's offset points into that field. *)
let spec_of_fields fields =
  List.fold_left
    (fun spec text ->
      match Scenario.override spec text with
      | Ok spec -> spec
      | Error e -> fail (Scenario.error_to_string e))
    Scenario.default fields

let validated spec =
  match Scenario.validate spec with Ok () -> spec | Error m -> fail m

let rate_field rate = Printf.sprintf "arrival=poisson:%.17g" rate

let quantum_field ?(adaptive = false) quantum_us =
  Printf.sprintf (if adaptive then "quantum=adaptive:%dus" else "quantum=%dus") quantum_us

let run_fields ~workers ~duration_ms ~seed =
  [
    Printf.sprintf "workers=%d" workers;
    Printf.sprintf "dur=%dms" duration_ms;
    Printf.sprintf "seed=%Ld" seed;
  ]

(* --timeout/--shed/--retry-budget/--brownout -> guard={...}.  All off
   leaves no guard, the exact no-op path; --retry-budget 0 means
   unbudgeted (naive) retries. *)
let guard_field ~timeout_us ~shed ~retry_budget ~brownout =
  let knobs =
    (if timeout_us > 0 then [ Printf.sprintf "timeout=%dus;expire" timeout_us ] else [])
    @ (if shed > 0 then [ Printf.sprintf "shed={q=%d}" shed ] else [])
    @ (match retry_budget with
      | None -> []
      | Some r when r = 0.0 -> [ "retry" ]
      | Some r ->
        [ Printf.sprintf "retry={budget=%.17g:%.17g}" r (Float.max 1.0 (r /. 10.0)) ])
    @ if brownout then [ "brownout" ] else []
  in
  if knobs = [] then [] else [ "guard={" ^ String.concat ";" knobs ^ "}" ]

let header spec = Format.printf "# %s@." (Scenario.to_string spec)

(* A run-time failure (no measured completions, the event cap) ends the
   process with one diagnostic line, not a backtrace. *)
let guarded f x = try f x with Failure m | Invalid_argument m -> fail ("lpctl: " ^ m)

(* top and trace attach sinks the spec language does not describe, so
   they record-update the lowered config and run it on the spec's
   arrivals and source. *)
let run_config ?probes spec cfg =
  guarded
    (fun () ->
      Preemptible.Server.run ?probes ~warmup_ns:spec.Scenario.warmup_ns cfg
        ~arrival:(Scenario.arrival_process spec) ~source:(Scenario.source_sampler spec)
        ~duration_ns:spec.Scenario.duration_ns)
    ()

let pp_result r =
  Format.printf "%a@." Preemptible.Server.pp_result r;
  (match r.Preemptible.Server.lc with
  | Some lc -> Format.printf "LC: %a@." Stat.Summary.pp_report_us lc
  | None -> ());
  (match r.Preemptible.Server.be with
  | Some be -> Format.printf "BE: %a@." Stat.Summary.pp_report_us be
  | None -> ());
  match r.Preemptible.Server.guard with
  | Some g -> Format.printf "guard: %a@." Guard.pp_report g
  | None -> ()

let pp_fleet_result (r : Cluster.result) =
  Format.printf "%a@." Cluster.pp_fleet r.Cluster.fleet;
  Array.iteri
    (fun i (s : Preemptible.Server.result) ->
      Format.printf
        "  server %d: completed=%d shed=%d p50=%.1fus p99=%.1fus busy=%.2f preempts=%d@." i
        s.Preemptible.Server.completed s.Preemptible.Server.shed
        (s.Preemptible.Server.all.Stat.Summary.p50 /. 1e3)
        (s.Preemptible.Server.all.Stat.Summary.p99 /. 1e3)
        s.Preemptible.Server.worker_busy_frac s.Preemptible.Server.preemptions)
    r.Cluster.per_server

(* Run validated specs (a multi-point sweep fans out across pool
   domains) and print each result under its "# <spec>" header; [label]
   prints a line ahead of each point of a sweep. *)
let run_and_print ?(jobs = 1) ?(label = fun _ _ -> ()) specs =
  let outcomes =
    match specs with
    | [ spec ] -> [ guarded Scenario.run spec ]
    | specs ->
      guarded
        (Exec.Sweep.run ?trace:(Lazy.force pool_trace) ~label:"serve" ~jobs Scenario.run)
        specs
  in
  List.iteri
    (fun i (spec, outcome) ->
      if List.length specs > 1 then label i outcome;
      header spec;
      match outcome with
      | Scenario.Server r -> pp_result r
      | Scenario.Fleet r -> pp_fleet_result r)
    (List.combine specs outcomes);
  outcomes

(* Shared flags: each names one spec field. *)
let workload_arg =
  Arg.(
    value & opt string "a1"
    & info [ "workload" ] ~doc:"a1|a2|b|c, or any scenario source (see SCENARIOS.md)")

let workers_arg = Arg.(value & opt int 4 & info [ "workers" ] ~doc:"worker threads")
let quantum_arg = Arg.(value & opt int 5 & info [ "quantum" ] ~doc:"time quantum, us")
let duration_arg default =
  Arg.(value & opt int default & info [ "duration" ] ~doc:"run length, ms")

let seed_arg default =
  Arg.(value & opt int64 default & info [ "seed" ] ~doc:"simulation seed")

let rate_arg =
  Arg.(value & opt float 500_000.0 & info [ "rate" ] ~doc:"offered load, requests/s")

let adaptive_arg =
  Arg.(value & flag & info [ "adaptive" ] ~doc:"use the Algorithm-1 controller")

let timeout_arg =
  Arg.(
    value & opt int 0
    & info [ "timeout" ]
        ~doc:"client patience, us (0 = none); also arms server-side expiry of abandoned work")

let shed_arg =
  Arg.(
    value & opt int 0
    & info [ "shed" ]
        ~doc:"bound total queue occupancy and shed on standing delay (0 = no shedding)")

let brownout_arg =
  Arg.(
    value & flag
    & info [ "brownout" ] ~doc:"enable the hysteretic brownout/circuit-breaker controller")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let parse_rates s =
  let rates =
    List.map (fun p -> float_of_string_opt (String.trim p)) (String.split_on_char ',' s)
  in
  if List.mem None rates then
    fail (Printf.sprintf "--rate expects requests/s, comma-separated for a sweep; got %S" s);
  List.map Option.get rates

let serve system workload rate_s jobs quantum_us workers duration_ms adaptive seed
    timeout_us shed retry_budget brownout metrics_out servers lb steal =
  let rates = parse_rates rate_s in
  let spec_at rate =
    let spec =
      spec_of_fields
        ([
           "sys=" ^ field_value "--system" system;
           "src=" ^ field_value "--workload" workload;
           rate_field rate;
           quantum_field ~adaptive quantum_us;
           Printf.sprintf "fleet={n=%d;lb=%s%s}" servers (field_value "--lb" lb)
             (if steal then ";steal" else "");
         ]
        @ run_fields ~workers ~duration_ms ~seed
        @ guard_field ~timeout_us ~shed ~retry_budget ~brownout)
    in
    (* One server without --steal is a plain server, not a fleet of one
       (--lb was still parsed, so a bad name is rejected). *)
    validated
      (if servers = 1 && not steal then { spec with Scenario.fleet = None } else spec)
  in
  let specs = List.map spec_at rates in
  if metrics_out <> None && servers > 1 then
    fail "--metrics-out applies to single-server runs";
  let label i = function
    | Scenario.Server _ -> Format.printf "@.-- rate %.0f/s --@." (List.nth rates i)
    | Scenario.Fleet _ -> Format.printf "@.-- rate %.0f/s (fleet) --@." (List.nth rates i)
  in
  let outcomes = run_and_print ~jobs ~label specs in
  (* Prometheus text exposition of the run's metrics snapshot; for a
     multi-rate sweep the last rate's snapshot wins (one scrape file,
     valid exposition needs unique metric names). *)
  match (metrics_out, List.rev outcomes) with
  | Some path, Scenario.Server r :: _ ->
    Obs.Export.prometheus_to_file r.Preemptible.Server.metrics ~path;
    Format.printf "(metrics: %s)@." path
  | _ -> ()

let jobs_arg =
  Arg.(
    value
    & opt int (Exec.Sweep.default_jobs ())
    & info [ "jobs" ] ~doc:"worker domains for multi-point sweeps (1 = sequential)")

let serve_cmd =
  let system =
    Arg.(value & opt string "lp" & info [ "system" ] ~doc:"lp|lp-nouintr|shinjuku|libinger|nopreempt|go")
  in
  let rate =
    Arg.(
      value & opt string "500000"
      & info [ "rate" ] ~doc:"offered load, requests/s; comma-separated list sweeps in parallel")
  in
  let retry_budget =
    Arg.(
      value & opt (some float) None
      & info [ "retry-budget" ]
          ~doc:
            "enable client retries (4 attempts, exponential backoff) with a token budget \
             of this many retries/s; 0 = unbudgeted naive retries; requires --timeout")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "write the run's metrics snapshot in Prometheus text exposition format to \
             this file (multi-rate sweeps export the last rate)")
  in
  let servers =
    Arg.(
      value & opt int 1
      & info [ "servers" ]
          ~doc:"fleet size; above 1 simulates N servers behind a load balancer (lp|lp-nouintr)")
  in
  let lb =
    Arg.(
      value & opt string "p2c"
      & info [ "lb" ] ~doc:"fleet dispatch policy: random|rr|jsq|p2c (with --servers)")
  in
  let steal =
    Arg.(
      value & flag
      & info [ "steal" ]
          ~doc:"enable cross-server work stealing (with --servers; incompatible with \
                --retry-budget)")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"simulate a request-serving system under load"
       ~envs:[ env_pool_trace ])
    Term.(
      const serve $ system $ workload_arg $ rate $ jobs_arg $ quantum_arg $ workers_arg
      $ duration_arg 100 $ adaptive_arg $ seed_arg 42L $ timeout_arg $ shed_arg
      $ retry_budget $ brownout_arg $ metrics_out $ servers $ lb $ steal)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Periodically refreshed dashboard over the telemetry tick.  The
   simulation runs at full speed; rendering is throttled on wall clock
   (--refresh-ms) so a fast run does not flood the terminal.  --once
   suppresses live repaints and prints the final frame exactly once —
   the CI smoke mode. *)

let occupancy_bar frac width =
  let frac = if Float.is_nan frac then 0.0 else Float.min 1.0 (Float.max 0.0 frac) in
  let n = int_of_float ((frac *. float_of_int width) +. 0.5) in
  String.make n '#' ^ String.make (width - n) '.'

let render_frame ~clear (f : Preemptible.Telemetry.frame) =
  if clear then print_string "\027[2J\027[H";
  let quantum =
    if f.Preemptible.Telemetry.f_quantum_ns = max_int then "uncapped"
    else Printf.sprintf "%.1fus" (float_of_int f.Preemptible.Telemetry.f_quantum_ns /. 1e3)
  in
  let guard =
    match f.Preemptible.Telemetry.f_guard with
    | None -> "-"
    | Some s -> Guard.state_name s
  in
  let pct_ns ns elapsed = 100.0 *. float_of_int ns /. float_of_int (max 1 elapsed) in
  let us_or_dash v = if Float.is_nan v then "-" else Printf.sprintf "%.1fus" (v /. 1e3) in
  Format.printf "lpctl top  t=%7.2fms  quantum=%s  guard=%s  qlen=%d@."
    (float_of_int f.Preemptible.Telemetry.f_at_ns /. 1e6)
    quantum guard f.Preemptible.Telemetry.f_qlen;
  Format.printf "  tick: %d arrivals, %d completions, p50=%s p99=%s@."
    f.Preemptible.Telemetry.f_arrivals f.Preemptible.Telemetry.f_completions
    (us_or_dash f.Preemptible.Telemetry.f_p50_ns)
    (us_or_dash f.Preemptible.Telemetry.f_p99_ns);
  Array.iteri
    (fun i (c : Preemptible.Telemetry.core_attr) ->
      let el = f.Preemptible.Telemetry.f_elapsed_ns in
      let busy = float_of_int c.service_ns /. float_of_int (max 1 el) in
      Format.printf
        "  core %d [%s] %5.1f%% busy  (sched %4.1f%% preempt %4.1f%% idle %4.1f%%)@." i
        (occupancy_bar busy 20) (100.0 *. busy) (pct_ns c.sched_ns el)
        (pct_ns c.preempt_ns el) (pct_ns c.idle_ns el))
    f.Preemptible.Telemetry.f_cores;
  List.iter
    (fun (name, (s : Obs.Slo.status)) ->
      Format.printf "  slo %-12s burn fast %5.2fx slow %5.2fx  budget %5.1f%%%s@." name
        s.Obs.Slo.fast_burn s.Obs.Slo.slow_burn
        (100.0 *. s.Obs.Slo.budget_consumed)
        (if s.Obs.Slo.burn_firing then "  [BURN ALERT]"
         else if s.Obs.Slo.static_firing then "  [budget exhausted]"
         else ""))
    f.Preemptible.Telemetry.f_slos;
  Format.print_flush ()

let top workload rate workers quantum_us adaptive duration_ms tick_us slo_us refresh_ms
    once seed timeout_us shed brownout =
  if tick_us <= 0 then fail "--tick must be positive (us)";
  if slo_us <= 0 then fail "--slo must be positive (us)";
  if refresh_ms < 0 then fail "--refresh-ms must be non-negative";
  let spec =
    validated
      (spec_of_fields
         ([
            "src=" ^ field_value "--workload" workload;
            rate_field rate;
            quantum_field ~adaptive quantum_us;
            (* A dashboard wants the controller acting at dashboard
               timescales; the 100 ms default stats window would leave
               the quantum frozen for short runs. *)
            "window=2ms";
          ]
         @ run_fields ~workers ~duration_ms ~seed
         @ guard_field ~timeout_us ~shed ~retry_budget:None ~brownout))
  in
  let tick_ns = us tick_us in
  let slo_spec =
    {
      Obs.Slo.default_spec with
      Obs.Slo.name = Printf.sprintf "p99_%dus" slo_us;
      threshold_ns = us slo_us;
      window_ns = tick_ns;
      fast_windows = 2;
      slow_windows = 6;
      burn_threshold = 3.0;
    }
  in
  let cfg =
    {
      (Scenario.server_config spec) with
      Preemptible.Server.telemetry =
        Some
          {
            Preemptible.Telemetry.default with
            Preemptible.Telemetry.tick_ns;
            slos = [ slo_spec ];
          };
    }
  in
  let last_frame = ref None in
  let last_render = ref neg_infinity in
  let refresh_s = float_of_int refresh_ms /. 1e3 in
  let probes =
    {
      Preemptible.Server.no_probes with
      Preemptible.Server.on_tick =
        (fun frame ->
          last_frame := Some frame;
          if not once then begin
            let now = Unix.gettimeofday () in
            if now -. !last_render >= refresh_s then begin
              last_render := now;
              render_frame ~clear:true frame
            end
          end);
    }
  in
  let r = run_config ~probes spec cfg in
  (* Final frame: the only render in --once mode; live mode repaints
     it so the terminal ends on the last state, not mid-run. *)
  (match !last_frame with
  | Some frame -> render_frame ~clear:(not once) frame
  | None ->
    Format.printf "lpctl top: no telemetry frame recorded (duration below one tick?)@.");
  (match r.Preemptible.Server.telemetry with
  | None -> ()
  | Some tel ->
    Format.printf "@.";
    header spec;
    Format.printf "run summary: %d ticks, %d completed, p99=%.1fus@."
      tel.Preemptible.Telemetry.t_ticks r.Preemptible.Server.completed
      (r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3);
    Format.printf "  LC: %a@." Stat.Summary.pp_report_opt_us r.Preemptible.Server.lc;
    Array.iteri
      (fun i c ->
        Format.printf "  core %d: %a@." i Preemptible.Telemetry.pp_core_attr c)
      tel.Preemptible.Telemetry.t_cores;
    List.iter
      (fun rep -> Format.printf "  %a@." Obs.Slo.pp_report rep)
      tel.Preemptible.Telemetry.t_slos;
    Format.printf "  controller audit: %d decisions (%d dropped)@."
      (List.length tel.Preemptible.Telemetry.t_audit)
      tel.Preemptible.Telemetry.t_audit_dropped);
  match r.Preemptible.Server.guard with
  | Some g -> Format.printf "  guard: %a@." Guard.pp_report g
  | None -> ()

let top_cmd =
  let tick =
    Arg.(value & opt int 1000 & info [ "tick" ] ~doc:"telemetry tick / SLO window, us")
  in
  let slo =
    Arg.(
      value & opt int 250
      & info [ "slo" ] ~doc:"latency SLO threshold, us (objective 99% under threshold)")
  in
  let refresh =
    Arg.(
      value & opt int 50
      & info [ "refresh-ms" ] ~doc:"minimum wall-clock delay between repaints")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"no live repaints; print the final frame once and exit")
  in
  Cmd.v
    (Cmd.info "top" ~doc:"live telemetry dashboard for a simulated server")
    Term.(
      const top $ workload_arg $ rate_arg $ workers_arg $ quantum_arg $ adaptive_arg
      $ duration_arg 200 $ tick $ slo $ refresh $ once $ seed_arg 42L $ timeout_arg
      $ shed_arg $ brownout_arg)

(* ------------------------------------------------------------------ *)
(* ipc                                                                 *)
(* ------------------------------------------------------------------ *)

let ipc n =
  List.iter
    (fun mech -> Format.printf "%a@." Ksim.Ipc.pp_result (Ksim.Ipc.run_pingpong mech ~n))
    Ksim.Ipc.all

let ipc_cmd =
  let n = Arg.(value & opt int 100_000 & info [ "n" ] ~doc:"ping-pong round trips") in
  Cmd.v (Cmd.info "ipc" ~doc:"Table IV: IPC mechanism ping-pong") Term.(const ipc $ n)

(* ------------------------------------------------------------------ *)
(* timer                                                               *)
(* ------------------------------------------------------------------ *)

let timer strategy threads interval_us rounds =
  let strat =
    match strategy with
    | "creation" -> Ok Baselines.Timer_strategies.Creation_time
    | "staggered" -> Ok Baselines.Timer_strategies.Staggered
    | "chained" -> Ok Baselines.Timer_strategies.Chained
    | "utimer" -> Ok Baselines.Timer_strategies.Userspace_timer
    | s -> Error s
  in
  match strat with
  | Error s ->
    prerr_endline (Printf.sprintf "unknown strategy %S (creation|staggered|chained|utimer)" s);
    exit 1
  | Ok strat ->
    let r =
      Baselines.Timer_strategies.delivery_overhead strat ~threads ~interval_ns:(us interval_us)
        ~rounds
    in
    Format.printf "%s threads=%d mean=%.2fus p99=%.2fus max=%.2fus@."
      r.Baselines.Timer_strategies.strategy threads r.Baselines.Timer_strategies.mean_overhead_us
      r.Baselines.Timer_strategies.p99_overhead_us r.Baselines.Timer_strategies.max_overhead_us

let timer_cmd =
  let strategy =
    Arg.(value & opt string "utimer" & info [ "strategy" ] ~doc:"creation|staggered|chained|utimer")
  in
  let threads = Arg.(value & opt int 16 & info [ "threads" ] ~doc:"timer-armed threads") in
  let interval = Arg.(value & opt int 100 & info [ "interval" ] ~doc:"timer interval, us") in
  let rounds = Arg.(value & opt int 1000 & info [ "rounds" ] ~doc:"measured firings per thread") in
  Cmd.v
    (Cmd.info "timer" ~doc:"Fig 11: timer delivery overhead for one strategy")
    Term.(const timer $ strategy $ threads $ interval $ rounds)

(* ------------------------------------------------------------------ *)
(* colocate                                                            *)
(* ------------------------------------------------------------------ *)

let colocate rate quantum_us be_fraction duration_ms =
  let spec =
    validated
      (spec_of_fields
         [
           "workers=1";
           Printf.sprintf "src=mix(%.17g*mica,%.17g*zlib)" (1.0 -. be_fraction) be_fraction;
           (if quantum_us = 0 then "quantum=none" else quantum_field quantum_us);
           rate_field rate;
           Printf.sprintf "dur=%dms" duration_ms;
         ])
  in
  header spec;
  pp_result (guarded Scenario.run_server spec)

let colocate_cmd =
  let rate = Arg.(value & opt float 55_000.0 & info [ "rate" ] ~doc:"requests/s") in
  let quantum = Arg.(value & opt int 30 & info [ "quantum" ] ~doc:"us; 0 = no preemption") in
  let be = Arg.(value & opt float 0.02 & info [ "be-fraction" ] ~doc:"best-effort share") in
  Cmd.v
    (Cmd.info "colocate" ~doc:"Sec V-C: MICA (LC) + zlib (BE) on one worker")
    Term.(const colocate $ rate $ quantum $ be $ duration_arg 300)

(* ------------------------------------------------------------------ *)
(* precision                                                           *)
(* ------------------------------------------------------------------ *)

let precision source_s threads target_us samples =
  let source =
    match source_s with
    | "kernel" -> `Kernel_timer
    | "utimer" -> `Utimer
    | s ->
      prerr_endline (Printf.sprintf "unknown source %S (kernel|utimer)" s);
      exit 1
  in
  let r =
    Baselines.Timer_strategies.precision source ~threads ~target_ns:(us target_us) ~samples
  in
  Format.printf "%s target=%dus mean=%.2fus std=%.2fus p99=%.2fus rel.err=%.1f%%@."
    r.Baselines.Timer_strategies.source target_us r.Baselines.Timer_strategies.mean_gap_us
    r.Baselines.Timer_strategies.std_gap_us r.Baselines.Timer_strategies.p99_gap_us
    (100.0 *. r.Baselines.Timer_strategies.rel_error)

let precision_cmd =
  let source = Arg.(value & opt string "utimer" & info [ "source" ] ~doc:"kernel|utimer") in
  let threads = Arg.(value & opt int 26 & info [ "threads" ] ~doc:"concurrent timer users") in
  let target = Arg.(value & opt int 20 & info [ "target" ] ~doc:"target interval, us") in
  let samples = Arg.(value & opt int 5000 & info [ "samples" ] ~doc:"measured gaps") in
  Cmd.v
    (Cmd.info "precision" ~doc:"Fig 12: timer precision")
    Term.(const precision $ source $ threads $ target $ samples)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_csv rows =
  match Exec.Env.getenv_nonempty "LP_BENCH_CSV" with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir "lpctl_faults.csv" in
    let oc = open_out path in
    output_string oc "case,p99_us,ratio_vs_fault_free,injected,detected,recovered,undetected\n";
    List.iter (fun row -> output_string oc (row ^ "\n")) rows;
    close_out oc;
    Format.printf "(csv: %s)@." path

let faults rate plan recovery seed workers quantum_us load duration_ms =
  let runs =
    match recovery with
    | "off" -> [ ("recovery-off", []) ]
    | "on" -> [ ("recovery-on", [ "watchdog" ]) ]
    | "both" -> [ ("recovery-off", []); ("recovery-on", [ "watchdog" ]) ]
    | s -> fail (Printf.sprintf "unknown --recovery %S (on|off|both)" s)
  in
  let plan = if plan = "" then Printf.sprintf "uipi.drop=p:%g" rate else plan in
  let fields =
    [ "src=a1"; Printf.sprintf "arrival=poisson:%.17gx" load; quantum_field quantum_us ]
    @ run_fields ~workers ~duration_ms ~seed
  in
  (* Every spec, fault schedule included, validates before the
     fault-free run spends any time. *)
  let base = validated (spec_of_fields fields) in
  let faulty =
    List.map
      (fun (name, watchdog) ->
        let faults = "faults={" ^ field_value "--spec" plan ^ "}" in
        (name, validated (spec_of_fields (fields @ (faults :: watchdog)))))
      runs
  in
  let run spec =
    header spec;
    guarded Scenario.run_server spec
  in
  let base_p99 = (run base).Preemptible.Server.all.Stat.Summary.p99 in
  Format.printf "fault-free      p99=%8.1fus@." (base_p99 /. 1e3);
  faults_csv
    (List.filter_map
       (fun (name, spec) ->
         let r = run spec in
         let p99 = r.Preemptible.Server.all.Stat.Summary.p99 in
         Option.map
           (fun res ->
             Format.printf "%-15s p99=%8.1fus (%5.1fx)@.  %a@." name (p99 /. 1e3)
               (p99 /. base_p99) Preemptible.Server.pp_resilience res;
             let fr = res.Preemptible.Server.fault_report in
             Printf.sprintf "%s,%.1f,%.3f,%d,%d,%d,%d" name (p99 /. 1e3) (p99 /. base_p99)
               fr.Fault.injected fr.Fault.detected fr.Fault.recovered fr.Fault.undetected)
           r.Preemptible.Server.resilience)
       faulty)

let faults_cmd =
  let rate =
    Arg.(value & opt float 0.01 & info [ "rate" ] ~doc:"UIPI loss probability (ignored with --spec)")
  in
  let plan =
    Arg.(
      value & opt string ""
      & info [ "spec" ]
          ~doc:"fault schedule, e.g. uipi.drop=p:0.01,utimer.crash=once:2000")
  in
  let recovery = Arg.(value & opt string "both" & info [ "recovery" ] ~doc:"on|off|both") in
  let load = Arg.(value & opt float 0.6 & info [ "load" ] ~doc:"fraction of capacity") in
  Cmd.v
    (Cmd.info "faults" ~doc:"resilience: fault injection with recovery on/off"
       ~envs:[ env_bench_csv ])
    Term.(
      const faults $ rate $ plan $ recovery $ seed_arg 7L $ workers_arg $ quantum_arg $ load
      $ duration_arg 60)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let parse_categories s =
  if String.trim s = "" then Obs.Trace.all_cats
  else
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun c -> c <> "")
    |> List.map (fun c ->
           match Obs.Trace.cat_of_string c with
           | Ok cat -> cat
           | Error m -> fail ("bad --categories: " ^ m))

let trace out categories buffer_events breakdown workload rate quantum_us workers
    duration_ms seed =
  (* Validate every knob before the simulation spends any time. *)
  if buffer_events <= 0 then fail "--buffer-events must be positive";
  let categories = parse_categories categories in
  let out =
    match out with
    | "" -> (
      (* An empty LP_TRACE_OUT counts as unset, matching the bench
         harness convention. *)
      match Exec.Env.getenv_nonempty "LP_TRACE_OUT" with
      | Some f -> f
      | None -> "trace.json")
    | f -> f
  in
  let spec =
    validated
      (spec_of_fields
         ([
            "src=" ^ field_value "--workload" workload;
            rate_field rate;
            quantum_field quantum_us;
          ]
         @ run_fields ~workers ~duration_ms ~seed))
  in
  let cfg =
    {
      (Scenario.server_config spec) with
      Preemptible.Server.trace = Some { Obs.Trace.capacity = buffer_events; categories };
    }
  in
  header spec;
  let r = run_config spec cfg in
  pp_result r;
  (match r.Preemptible.Server.trace with
  | None -> ()
  | Some tr ->
    Obs.Export.perfetto_to_file tr ~path:out;
    Format.printf "trace: %d events recorded, %d dropped -> %s@." (Obs.Trace.recorded tr)
      (Obs.Trace.dropped tr) out;
    if breakdown then begin
      let bd = Obs.Breakdown.of_trace tr in
      Format.printf "%a@." Obs.Breakdown.pp bd;
      if not (Obs.Breakdown.sums_ok bd) then
        fail "breakdown components do not telescope to total latency"
    end);
  Format.printf "metrics:@.%a@." Obs.Metrics.pp_snapshot r.Preemptible.Server.metrics

let trace_cmd =
  let out =
    Arg.(
      value & opt string ""
      & info [ "out" ] ~doc:"Perfetto JSON output path (default $(b,LP_TRACE_OUT) or trace.json)")
  in
  let categories =
    Arg.(
      value & opt string ""
      & info [ "categories" ]
          ~doc:"comma-separated category filter (uipi,klock,utimer,sched,server,request,fault,fiber,exec); empty = all")
  in
  let buffer_events =
    Arg.(
      value
      & opt int Obs.Trace.default_config.Obs.Trace.capacity
      & info [ "buffer-events" ] ~doc:"trace ring capacity in events")
  in
  let breakdown =
    Arg.(value & flag & info [ "breakdown" ] ~doc:"print the per-request latency breakdown")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"traced LibPreemptible run: Perfetto export + latency breakdown"
       ~envs:[ env_trace_out ])
    Term.(
      const trace $ out $ categories $ buffer_events $ breakdown $ workload_arg $ rate_arg
      $ quantum_arg $ workers_arg $ duration_arg 100 $ seed_arg 42L)

(* ------------------------------------------------------------------ *)
(* run (declarative scenarios)                                         *)
(* ------------------------------------------------------------------ *)

(* lpctl run SCENARIO: SCENARIO is a .scn file when one exists at that
   path, otherwise it is parsed as an inline spec string, so both

     lpctl run scenarios/tail_attack.scn
     lpctl run "workers=4; src=b; arrival=poisson:0.8x; dur=30ms"

   work.  -s KEY=VALUE overrides apply on top in order.  --rt executes
   the spec on real domains (Fiber_rt) instead of the simulator. *)
let run_scenario scenario sets print_only rt =
  let parsed =
    if Sys.file_exists scenario then Scenario.of_file scenario
    else Scenario.of_string scenario
  in
  let spec =
    match parsed with Ok spec -> spec | Error e -> fail (Scenario.error_to_string e)
  in
  let spec =
    List.fold_left
      (fun spec text ->
        match Scenario.override spec text with
        | Ok spec -> spec
        | Error e -> fail ("-s " ^ text ^ ": " ^ Scenario.error_to_string e))
      spec sets
  in
  let spec = validated spec in
  if print_only then print_string (Scenario.to_string spec)
  else if rt then begin
    (match Scenario.validate_rt spec with Ok () -> () | Error m -> fail ("--rt: " ^ m));
    header spec;
    Format.printf "# executing on %d real domain(s) + 1 timer domain (wall clock)@."
      spec.Scenario.workers;
    Format.printf "%a@." Fiber_rt.Sched.pp_result (guarded Scenario.run_rt spec)
  end
  else ignore (run_and_print [ spec ])

let run_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"a scenario (.scn) file path, or an inline spec string when no such file exists")
  in
  let sets =
    Arg.(
      value & opt_all string []
      & info [ "s"; "set" ] ~docv:"KEY=VALUE"
          ~doc:"override a scenario field (repeatable, applied in order), e.g. -s seed=7 -s \
                \"arrival=poisson:1.2x\"")
  in
  let print_only =
    Arg.(
      value & flag
      & info [ "print" ] ~doc:"print the normalized spec instead of running it")
  in
  let rt =
    Arg.(
      value & flag
      & info [ "rt" ]
          ~doc:
            "execute on real domains (work-stealing fiber runtime) instead of the \
             simulator; supports the single-server lp subset of the language (no fleet, \
             guard, faults, watchdog or adaptive quantum)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"parse, validate and run a declarative scenario")
    Term.(const run_scenario $ scenario $ sets $ print_only $ rt)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack scenario_s storm victim_rate duration_ms =
  let scenario =
    match scenario_s with
    | "native" -> Baselines.Attack.Native_uintr_storm
    | "libpreemptible" | "lp" -> Baselines.Attack.Libpreemptible_storm
    | "apic" -> Baselines.Attack.Shinjuku_apic_storm
    | s ->
      prerr_endline (Printf.sprintf "unknown scenario %S (native|lp|apic)" s);
      exit 1
  in
  let r =
    Baselines.Attack.run scenario ~storm_per_sec:storm ~victim_rate
      ~duration_ns:(ms duration_ms)
  in
  Format.printf "%a@." Baselines.Attack.pp_result r

let attack_cmd =
  let scenario = Arg.(value & opt string "native" & info [ "scenario" ] ~doc:"native|lp|apic") in
  let storm = Arg.(value & opt float 1_000_000.0 & info [ "storm" ] ~doc:"interrupts/s") in
  let victim = Arg.(value & opt float 300_000.0 & info [ "victim-rate" ] ~doc:"requests/s") in
  let duration = Arg.(value & opt int 100 & info [ "duration" ] ~doc:"ms") in
  Cmd.v
    (Cmd.info "attack" ~doc:"Sec VII: interrupt-storm DoS against a victim core")
    Term.(const attack $ scenario $ storm $ victim $ duration)

let () =
  let doc = "LibPreemptible reproduction: custom simulation runs" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lpctl" ~doc)
          [
            serve_cmd;
            run_cmd;
            top_cmd;
            ipc_cmd;
            timer_cmd;
            colocate_cmd;
            precision_cmd;
            attack_cmd;
            faults_cmd;
            trace_cmd;
          ]))
