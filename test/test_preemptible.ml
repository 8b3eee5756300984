(* Tests for the LibPreemptible core library. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

module Ctx = Preemptible.Context

let test_context_alloc_release () =
  let pool = Ctx.create_pool ~capacity:2 ~stack_kb:16 in
  let a = Ctx.alloc pool in
  let b = Ctx.alloc pool in
  check_int "in use" 2 (Ctx.in_use pool);
  check_int "none free" 0 (Ctx.free_count pool);
  check_bool "exhausted raises" true
    (try
       ignore (Ctx.alloc pool);
       false
     with Ctx.Pool_exhausted -> true);
  Ctx.release pool a;
  check_int "one free" 1 (Ctx.free_count pool);
  let c = Ctx.alloc pool in
  check_bool "contexts are reused" true (Ctx.ctx_id c = Ctx.ctx_id a);
  Ctx.release pool b;
  Ctx.release pool c;
  check_int "high water" 2 (Ctx.high_water pool)

let test_context_state_machine () =
  let pool = Ctx.create_pool ~capacity:1 ~stack_kb:16 in
  let c = Ctx.alloc pool in
  check_bool "active" true (Ctx.state c = Ctx.Active);
  Ctx.mark_preempted c;
  check_bool "preempted" true (Ctx.state c = Ctx.Preempted);
  Alcotest.check_raises "cannot preempt twice"
    (Invalid_argument "Context.mark_preempted: context not active") (fun () ->
      Ctx.mark_preempted c);
  Ctx.mark_active c;
  Ctx.release pool c;
  Alcotest.check_raises "double release" (Invalid_argument "Context.release: context already free")
    (fun () -> Ctx.release pool c)

(* Model test: the pool against a reference copy of the eager free list
   it replaced ([capacity] contexts preloaded as ids 0..capacity-1, LIFO
   stack).  Both must hand out the same ids, raise [Pool_exhausted] on
   the same request, and agree on the counters at every step. *)
type ctx_op = Alloc | Release of int

let lazy_pool_matches_eager_model =
  QCheck.Test.make ~name:"context pool matches the eager free-list model" ~count:300
    QCheck.(
      pair (int_range 1 12)
        (list_of_size (Gen.int_range 0 80)
           (oneof [ always Alloc; map (fun i -> Release i) (int_range 0 15) ])))
    (fun (capacity, ops) ->
      let pool = Ctx.create_pool ~capacity ~stack_kb:16 in
      let free = ref (List.init capacity Fun.id) in
      let held = ref [] (* (ctx, id), newest first *) and used = ref 0 and hwm = ref 0 in
      let counters_agree () =
        Ctx.free_count pool = capacity - !used
        && Ctx.in_use pool = !used
        && Ctx.high_water pool = !hwm
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Alloc -> (
              match (!free, Ctx.alloc pool) with
              | [], _ -> false
              | id :: rest, c ->
                free := rest;
                held := (c, id) :: !held;
                incr used;
                hwm := max !hwm !used;
                Ctx.ctx_id c = id
              | exception Ctx.Pool_exhausted -> !free = [])
            | Release _ when !held = [] -> true
            | Release i ->
              let c, id = List.nth !held (i mod List.length !held) in
              held := List.filter (fun (c', _) -> c' != c) !held;
              free := id :: !free;
              decr used;
              Ctx.release pool c;
              (try
                 Ctx.release pool c;
                 false
               with Invalid_argument _ -> true)
          in
          same && counters_agree ())
        ops)

let test_context_pool_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Context.create_pool: capacity must be positive") (fun () ->
      ignore (Ctx.create_pool ~capacity:0 ~stack_kb:16))

(* ------------------------------------------------------------------ *)
(* Fn                                                                  *)
(* ------------------------------------------------------------------ *)

let make_fn service =
  let pool = Ctx.create_pool ~capacity:4 ~stack_kb:16 in
  let req =
    Workload.Request.make ~id:0 ~arrival_ns:100 ~service_ns:service
      ~cls:Workload.Request.Latency_critical
  in
  Preemptible.Fn.create req ~ctx:(Ctx.alloc pool)

let test_fn_lifecycle () =
  let fn = make_fn 10_000 in
  check_bool "created" true (Preemptible.Fn.status fn = Preemptible.Fn.Created);
  Preemptible.Fn.launch fn ~now:200 ~quantum_ns:4_000;
  check_int "deadline set" 4_200 (Preemptible.Fn.deadline_ns fn);
  Preemptible.Fn.note_progress fn ~executed_ns:4_000;
  Preemptible.Fn.preempt fn;
  check_bool "preempted" true (Preemptible.Fn.status fn = Preemptible.Fn.Preempted);
  check_int "remaining" 6_000 (Preemptible.Fn.remaining_ns fn);
  check_int "preempt count" 1 (Preemptible.Fn.preempt_count fn);
  Preemptible.Fn.resume fn ~now:9_000 ~quantum_ns:10_000;
  Preemptible.Fn.note_progress fn ~executed_ns:6_000;
  Preemptible.Fn.complete fn;
  check_bool "fn_completed" true (Preemptible.Fn.completed fn);
  check_int "sojourn" 19_900 (Preemptible.Fn.sojourn_ns fn ~now:20_000)

(* A record recycled through [Fn.Pool] comes back exactly as a fresh
   one would, whether its last request completed or was cancelled while
   preempted. *)
let test_fn_pool_reuse () =
  let pool = Preemptible.Fn.Pool.create (Ctx.create_pool ~capacity:4 ~stack_kb:16) in
  let req id service =
    Workload.Request.make ~id ~arrival_ns:0 ~service_ns:service
      ~cls:Workload.Request.Latency_critical
  in
  let check_fresh what fn r =
    check_bool (what ^ ": created") true (Preemptible.Fn.status fn = Preemptible.Fn.Created);
    check_int (what ^ ": no preemptions") 0 (Preemptible.Fn.preempt_count fn);
    check_int (what ^ ": no deadline") max_int (Preemptible.Fn.deadline_ns fn);
    check_int (what ^ ": full service remaining") r.Workload.Request.service_ns
      (Preemptible.Fn.remaining_ns fn);
    check_bool (what ^ ": bound to the new request") true (Preemptible.Fn.request fn == r)
  in
  let preempt_once fn =
    Preemptible.Fn.launch fn ~now:0 ~quantum_ns:1_000;
    Preemptible.Fn.note_progress fn ~executed_ns:1_000;
    Preemptible.Fn.preempt fn
  in
  (* Complete path. *)
  let first = Preemptible.Fn.Pool.acquire pool (req 0 3_000) in
  preempt_once first;
  Preemptible.Fn.resume first ~now:5_000 ~quantum_ns:max_int;
  Preemptible.Fn.note_progress first ~executed_ns:2_000;
  Preemptible.Fn.complete first;
  Preemptible.Fn.Pool.release pool first;
  let r = req 1 7_000 in
  let second = Preemptible.Fn.Pool.acquire pool r in
  check_bool "complete: record recycled" true (second == first);
  check_fresh "complete" second r;
  (* Cancel path: released while preempted, work left over. *)
  preempt_once second;
  Preemptible.Fn.Pool.release pool second;
  let r = req 2 9_000 in
  let third = Preemptible.Fn.Pool.acquire pool r in
  check_bool "cancel: record recycled" true (third == first);
  check_fresh "cancel" third r;
  (* A fresh context gets its own record. *)
  let other = Preemptible.Fn.Pool.acquire pool (req 3 1_000) in
  check_bool "distinct record per context" true (other != third);
  check_int "contexts in use" 2 (Ctx.in_use (Preemptible.Fn.Pool.contexts pool))

let test_fn_infinite_quantum () =
  let fn = make_fn 100 in
  Preemptible.Fn.launch fn ~now:0 ~quantum_ns:max_int;
  check_int "no deadline" max_int (Preemptible.Fn.deadline_ns fn)

let test_fn_invalid_transitions () =
  let fn = make_fn 1_000 in
  Alcotest.check_raises "resume before launch"
    (Invalid_argument "Fn.resume: function not preempted") (fun () ->
      Preemptible.Fn.resume fn ~now:0 ~quantum_ns:10);
  Preemptible.Fn.launch fn ~now:0 ~quantum_ns:10;
  Alcotest.check_raises "double launch" (Invalid_argument "Fn.launch: function already launched")
    (fun () -> Preemptible.Fn.launch fn ~now:0 ~quantum_ns:10);
  Alcotest.check_raises "complete with remaining work"
    (Invalid_argument "Fn.complete: work remains") (fun () -> Preemptible.Fn.complete fn);
  Alcotest.check_raises "overshoot progress"
    (Invalid_argument "Fn.note_progress: progress exceeds remaining work") (fun () ->
      Preemptible.Fn.note_progress fn ~executed_ns:2_000)

(* ------------------------------------------------------------------ *)
(* Rqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_rqueue_fifo_and_stats () =
  let q = Preemptible.Rqueue.create ~name:"test" in
  Preemptible.Rqueue.push q ~now:0 "a";
  Preemptible.Rqueue.push q ~now:10 "b";
  check_int "len" 2 (Preemptible.Rqueue.length q);
  Alcotest.(check (option string)) "peek" (Some "a") (Preemptible.Rqueue.peek q);
  Alcotest.(check (option string)) "pop a" (Some "a") (Preemptible.Rqueue.pop q ~now:100);
  Alcotest.(check (option string)) "pop b" (Some "b") (Preemptible.Rqueue.pop q ~now:100);
  Alcotest.(check (option string)) "empty" None (Preemptible.Rqueue.pop q ~now:100);
  check_int "hwm" 2 (Preemptible.Rqueue.max_length q);
  check_int "pushed" 2 (Preemptible.Rqueue.total_pushed q);
  Alcotest.(check (float 1e-9)) "mean wait" 95.0 (Preemptible.Rqueue.mean_wait_ns q)

(* Drive the ring past its initial capacity and around the wrap
   boundary: a model list must agree at every step. *)
let test_rqueue_ring_wraparound () =
  let q = Preemptible.Rqueue.create ~name:"ring" in
  let model = Queue.create () in
  let next = ref 0 in
  for round = 1 to 50 do
    (* Net growth early, net drain late — exercises grow + wrap. *)
    let pushes = if round <= 25 then 5 else 2 in
    let pops = if round <= 25 then 2 else 5 in
    for _ = 1 to pushes do
      incr next;
      Preemptible.Rqueue.push q ~now:0 !next;
      Queue.push !next model
    done;
    for _ = 1 to pops do
      let expect = if Queue.is_empty model then None else Some (Queue.pop model) in
      Alcotest.(check (option int)) "fifo across wrap" expect
        (Preemptible.Rqueue.pop q ~now:0)
    done;
    check_int "length agrees" (Queue.length model) (Preemptible.Rqueue.length q)
  done

(* pop_by removal from the middle must preserve FIFO order of the
   remaining elements even when the ring has wrapped. *)
let test_rqueue_pop_by_after_wrap () =
  let q = Preemptible.Rqueue.create ~name:"ring2" in
  (* Fill past the initial capacity of 16 and wrap the head. *)
  for i = 1 to 20 do
    Preemptible.Rqueue.push q ~now:0 i
  done;
  for _ = 1 to 10 do
    ignore (Preemptible.Rqueue.pop q ~now:0)
  done;
  for i = 21 to 30 do
    Preemptible.Rqueue.push q ~now:0 i
  done;
  (* Queue now holds 11..30 with head wrapped. Remove 25 from the middle. *)
  Alcotest.(check (option int)) "pop_by mid" (Some 25)
    (Preemptible.Rqueue.pop_by q ~now:0 ~key:(fun v -> if v = 25 then 0 else 1));
  let rest = ref [] in
  let rec drain () =
    match Preemptible.Rqueue.pop q ~now:0 with
    | Some v ->
      rest := v :: !rest;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo preserved"
    (List.filter (fun v -> v <> 25) (List.init 20 (fun i -> i + 11)))
    (List.rev !rest)

let test_rqueue_pop_by () =
  let q = Preemptible.Rqueue.create ~name:"prio" in
  Preemptible.Rqueue.push q ~now:0 (3, "c");
  Preemptible.Rqueue.push q ~now:0 (1, "a");
  Preemptible.Rqueue.push q ~now:0 (2, "b");
  Preemptible.Rqueue.push q ~now:0 (1, "a2");
  let key (k, _) = k in
  Alcotest.(check (option (pair int string))) "min first" (Some (1, "a"))
    (Preemptible.Rqueue.pop_by q ~now:5 ~key);
  Alcotest.(check (option (pair int string))) "fifo among ties" (Some (1, "a2"))
    (Preemptible.Rqueue.pop_by q ~now:5 ~key);
  Alcotest.(check (option (pair int string))) "then next" (Some (2, "b"))
    (Preemptible.Rqueue.pop_by q ~now:5 ~key);
  check_int "one left" 1 (Preemptible.Rqueue.length q);
  Alcotest.(check (option (pair int string))) "empty eventually" None
    (let _ = Preemptible.Rqueue.pop_by q ~now:5 ~key in
     Preemptible.Rqueue.pop_by q ~now:5 ~key)

(* ------------------------------------------------------------------ *)
(* Stats_window                                                        *)
(* ------------------------------------------------------------------ *)

let test_stats_window_roll () =
  let w = Preemptible.Stats_window.create ~window_ns:1_000_000 in
  for i = 1 to 100 do
    Preemptible.Stats_window.note_arrival w ~now:(i * 1_000);
    Preemptible.Stats_window.note_completion w ~now:(i * 1_000) ~latency_ns:(i * 100)
      ~service_ns:(i * 50)
  done;
  Preemptible.Stats_window.note_qlen w 17;
  check_bool "not ready early" false (Preemptible.Stats_window.ready w ~now:500_000);
  check_bool "ready at window" true (Preemptible.Stats_window.ready w ~now:1_000_000);
  let s = Preemptible.Stats_window.roll w ~now:1_000_000 in
  check_int "arrivals" 100 s.Preemptible.Stats_window.arrivals;
  check_int "completions" 100 s.Preemptible.Stats_window.completions;
  Alcotest.(check (float 1.0)) "rate 100k/s" 100_000.0 s.Preemptible.Stats_window.arrival_rate_per_s;
  check_int "qlen" 17 s.Preemptible.Stats_window.max_qlen;
  check_bool "median near 5050" true (abs_float (s.Preemptible.Stats_window.median_ns -. 5_050.0) < 600.0);
  check_bool "service median near 2525" true
    (abs_float (s.Preemptible.Stats_window.service_median_ns -. 2_525.0) < 300.0);
  (* next window is fresh *)
  let s2 = Preemptible.Stats_window.roll w ~now:2_000_000 in
  check_int "fresh arrivals" 0 s2.Preemptible.Stats_window.arrivals

(* ------------------------------------------------------------------ *)
(* Quantum_controller                                                  *)
(* ------------------------------------------------------------------ *)

module Qc = Preemptible.Quantum_controller

(* The [median]/[p99] arguments stand for the window's service-time
   statistics — the inputs Algorithm 1's tail fit consumes. *)
let snapshot ?(rate = 0.0) ?(median = 0.0) ?(p99 = 0.0) ?(qlen = 0) ?(completions = 1) () =
  {
    Preemptible.Stats_window.window_start_ns = 0;
    window_ns = 1_000_000;
    arrivals = 0;
    completions;
    arrival_rate_per_s = rate;
    median_ns = median;
    p99_ns = p99;
    service_median_ns = median;
    service_p99_ns = p99;
    max_qlen = qlen;
  }

let test_controller_decreases_under_high_load () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:50_000 () in
  let tq = Qc.observe c (snapshot ~rate:950_000.0 ~median:1_000.0 ~p99:2_000.0 ()) in
  check_int "dropped by k1" 40_000 tq

let test_controller_decreases_on_heavy_tail () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:50_000 () in
  (* p99/median = 500 => alpha = ln 50 / ln 500 ~ 0.63 < 2: heavy *)
  let tq = Qc.observe c (snapshot ~rate:500_000.0 ~median:1_000.0 ~p99:500_000.0 ()) in
  check_int "dropped by k2" 40_000 tq

let test_controller_increases_under_low_load () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:50_000 () in
  let tq = Qc.observe c (snapshot ~rate:50_000.0 ~median:1_000.0 ~p99:1_500.0 ()) in
  check_int "raised by k3" 60_000 tq

let test_controller_respects_bounds () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:5_000 () in
  (* Both high-load and heavy-tail triggers: would go negative without
     the T_min floor (the paper's min/max typo, fixed). *)
  let tq = Qc.observe c (snapshot ~rate:990_000.0 ~median:1_000.0 ~p99:500_000.0 ~qlen:100 ()) in
  check_int "clamped at t_min" (Qc.default_config.Qc.t_min_ns) tq;
  let c2 = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:95_000 () in
  let tq2 = Qc.observe c2 (snapshot ~rate:10.0 ~median:1_000.0 ~p99:1_200.0 ()) in
  check_int "clamped at t_max" (Qc.default_config.Qc.t_max_ns) tq2

let test_controller_queue_trigger () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:50_000 () in
  let tq =
    Qc.observe c (snapshot ~rate:500_000.0 ~median:1_000.0 ~p99:1_200.0 ~qlen:1_000 ())
  in
  check_int "queue threshold trigger" 40_000 tq

let test_controller_tail_index () =
  (match Qc.tail_index_of (snapshot ~median:1_000.0 ~p99:500_000.0 ()) with
  | Some alpha -> check_bool "heavy" true (Stat.Tail_index.is_heavy alpha)
  | None -> Alcotest.fail "expected an index");
  check_bool "no data -> none" true (Qc.tail_index_of (snapshot ~completions:0 ()) = None)

let test_controller_validation () =
  Alcotest.check_raises "bad initial"
    (Invalid_argument "Quantum_controller.create: initial quantum outside [t_min, t_max]")
    (fun () -> ignore (Qc.create ~max_load_per_s:1e6 ~initial_quantum_ns:1 ()))

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

let test_policy_quanta () =
  let p = Preemptible.Policy.fcfs_preempt ~quantum_ns:30_000 in
  check_int "static quantum" 30_000
    (p.Preemptible.Policy.quantum_ns ~now:0 ~cls:Workload.Request.Latency_critical);
  check_int "no-preempt quantum" max_int
    (Preemptible.Policy.no_preempt.Preemptible.Policy.quantum_ns ~now:0
       ~cls:Workload.Request.Latency_critical)

let test_policy_be_quantum () =
  let p =
    Preemptible.Policy.with_be_quantum
      (Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
      ~be_quantum_ns:50_000
  in
  check_int "lc" 5_000 (p.Preemptible.Policy.quantum_ns ~now:0 ~cls:Workload.Request.Latency_critical);
  check_int "be" 50_000 (p.Preemptible.Policy.quantum_ns ~now:0 ~cls:Workload.Request.Best_effort)

let test_policy_adaptive_follows_controller () =
  let c = Qc.create ~max_load_per_s:1_000_000.0 ~initial_quantum_ns:50_000 () in
  let p = Preemptible.Policy.adaptive c in
  check_int "initial" 50_000
    (p.Preemptible.Policy.quantum_ns ~now:0 ~cls:Workload.Request.Latency_critical);
  p.Preemptible.Policy.on_window (snapshot ~rate:950_000.0 ~median:1_000.0 ~p99:1_500.0 ());
  check_int "after window" 40_000
    (p.Preemptible.Policy.quantum_ns ~now:0 ~cls:Workload.Request.Latency_critical)

let test_policy_ps_alternates () =
  let p = Preemptible.Policy.processor_sharing ~quantum_ns:1_000 in
  let a = p.Preemptible.Policy.pick ~new_ready:1 ~preempted_ready:1 in
  let b = p.Preemptible.Policy.pick ~new_ready:1 ~preempted_ready:1 in
  check_bool "alternates" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

module Server = Preemptible.Server

let a1_source =
  Workload.Source.of_dist Workload.Service_dist.workload_a1
    ~cls:Workload.Request.Latency_critical

let run_server ?(policy = Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
    ?(mechanism = Server.Uintr_utimer Utimer.default_config) ?(rate = 400_000.0)
    ?(duration = Units.ms 50) ?(source = a1_source) ?seed () =
  let cfg = Server.default_config ~n_workers:4 ~policy ~mechanism in
  let cfg = match seed with Some s -> { cfg with Server.seed = s } | None -> cfg in
  Server.run cfg ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate) ~source
    ~duration_ns:duration

let test_server_conservation () =
  let r = run_server () in
  check_int "all offered requests complete (drained)" r.Server.offered r.Server.completed;
  check_int "nothing dropped" 0 r.Server.dropped;
  check_bool "contexts bounded" true (r.Server.ctx_high_water <= 8192)

let test_server_preemption_beats_hol_blocking () =
  let no_preempt =
    run_server ~policy:Preemptible.Policy.no_preempt ~mechanism:Server.No_mechanism ()
  in
  let preempt = run_server () in
  let p99 r = r.Server.all.Stat.Summary.p99 in
  check_bool "preemption removes HoL blocking (>=5x p99)" true
    (p99 no_preempt > 5.0 *. p99 preempt);
  check_bool "preemptions happened" true (preempt.Server.preemptions > 100)

let test_server_deterministic () =
  let a = run_server ~seed:7L () in
  let b = run_server ~seed:7L () in
  check_int "same completions" a.Server.completed b.Server.completed;
  Alcotest.(check (float 0.0)) "same p99" a.Server.all.Stat.Summary.p99 b.Server.all.Stat.Summary.p99;
  check_int "same preemptions" a.Server.preemptions b.Server.preemptions

let test_server_seed_changes_run () =
  let a = run_server ~seed:7L () in
  let b = run_server ~seed:8L () in
  check_bool "different seed, different trace" true
    (a.Server.all.Stat.Summary.mean <> b.Server.all.Stat.Summary.mean)

let test_server_kernel_mech_worse_than_uintr () =
  let uintr = run_server () in
  let ksig = run_server ~mechanism:(Server.Signal_utimer { poll_ns = 500 }) () in
  check_bool "signal-based preemption has worse p99" true
    (ksig.Server.all.Stat.Summary.p99 > uintr.Server.all.Stat.Summary.p99)

let test_server_adaptive_policy_runs () =
  let controller =
    Qc.create ~max_load_per_s:1_300_000.0 ~initial_quantum_ns:50_000 ()
  in
  let windows = ref 0 in
  let probes =
    {
      Server.on_complete = (fun ~now:_ ~latency_ns:_ ~cls:_ -> ());
      on_window = (fun _ ~quantum_ns:_ -> incr windows);
      on_tick = ignore;
    }
  in
  let policy = Preemptible.Policy.adaptive controller in
  let cfg =
    Server.default_config ~n_workers:4 ~policy
      ~mechanism:(Server.Uintr_utimer Utimer.default_config)
  in
  let cfg = { cfg with Server.stats_window_ns = Units.ms 5 } in
  let r =
    Server.run ~probes cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:1_200_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 50)
  in
  check_bool "controller engaged" true (Qc.steps controller > 0);
  check_bool "windows observed" true (!windows > 0);
  check_bool "quantum adapted downward under high load" true
    (Qc.quantum_ns controller < 50_000);
  check_bool "completed everything" true (r.Server.completed = r.Server.offered)

let test_server_warmup_excludes_early () =
  let cfg =
    Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
      ~mechanism:(Server.Uintr_utimer Utimer.default_config)
  in
  let arrival = Workload.Arrival.poisson ~rate_per_sec:200_000.0 in
  let all = Server.run cfg ~arrival ~source:a1_source ~duration_ns:(Units.ms 20) in
  let warm =
    Server.run ~warmup_ns:(Units.ms 10) cfg ~arrival ~source:a1_source
      ~duration_ns:(Units.ms 20)
  in
  check_bool "warmup reduces measured count" true (warm.Server.offered < all.Server.offered);
  check_bool "measured window halved" true (warm.Server.measured_ns = Units.ms 10)

let test_server_be_lc_split () =
  let mica = Workload.Mica.create () in
  let zlib = Workload.Zlib_be.create () in
  let source =
    Workload.Source.mix [ (0.98, Workload.Mica.source mica); (0.02, Workload.Zlib_be.source zlib) ]
  in
  let r = run_server ~rate:100_000.0 ~source () in
  check_bool "lc summary present" true (r.Server.lc <> None);
  check_bool "be summary present" true (r.Server.be <> None);
  match (r.Server.lc, r.Server.be) with
  | Some lc, Some be ->
    check_bool "BE requests are much longer" true (be.Stat.Summary.p50 > 10.0 *. lc.Stat.Summary.p50)
  | _ -> Alcotest.fail "missing class summaries"

let test_server_validation () =
  let cfg =
    Server.default_config ~n_workers:0 ~policy:Preemptible.Policy.no_preempt
      ~mechanism:Server.No_mechanism
  in
  Alcotest.check_raises "no workers" (Invalid_argument "Server.run: need at least one worker")
    (fun () ->
      ignore
        (Server.run cfg
           ~arrival:(Workload.Arrival.poisson ~rate_per_sec:1_000.0)
           ~source:a1_source ~duration_ns:1_000))

let test_server_srpt_oracle_beats_fcfs () =
  (* With oracle service times, SRPT ordering of fresh requests improves
     the tail on the heavy-tailed workload at high load. *)
  let run discipline =
    let cfg =
      Server.default_config ~n_workers:4
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
        ~mechanism:(Server.Uintr_utimer Utimer.default_config)
    in
    let cfg = { cfg with Server.discipline } in
    Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:1_200_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 40)
  in
  let fcfs = run Server.Fifo in
  let srpt = run Server.Srpt_oracle in
  check_bool "srpt p50 no worse" true
    (srpt.Server.all.Stat.Summary.p50 <= 1.05 *. fcfs.Server.all.Stat.Summary.p50);
  check_int "same offered" fcfs.Server.offered srpt.Server.offered

let test_server_edf_orders_by_deadline () =
  let cfg =
    Server.default_config ~n_workers:1
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
      ~mechanism:(Server.Uintr_utimer Utimer.default_config)
  in
  let cfg = { cfg with Server.discipline = Server.Edf (Units.us 100) } in
  let r =
    Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:300_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 30)
  in
  check_int "conserves" r.Server.offered r.Server.completed

let test_server_cancellation () =
  (* Long requests that blow a tight SLO get cancelled at their first
     preemption, freeing resources. *)
  let run cancel =
    let cfg =
      Server.default_config ~n_workers:2
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
        ~mechanism:(Server.Uintr_utimer Utimer.default_config)
    in
    let cfg = { cfg with Server.cancel_after_slo = cancel } in
    Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:500_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 30)
  in
  let plain = run None in
  check_int "no cancellations by default" 0 plain.Server.cancelled;
  check_int "plain conserves" plain.Server.offered plain.Server.completed;
  let slo = run (Some (Units.us 50)) in
  check_bool "doomed longs cancelled" true (slo.Server.cancelled > 0);
  check_int "completed + cancelled = offered" slo.Server.offered
    (slo.Server.completed + slo.Server.cancelled);
  check_bool "cancellation frees capacity (throughput of survivors ok)" true
    (slo.Server.completed > 0)

(* ------------------------------------------------------------------ *)
(* Pacer                                                               *)
(* ------------------------------------------------------------------ *)

let test_pacer_utimer_exact () =
  let sim = Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let ut = Utimer.create sim ~uintr:fabric () in
  Utimer.start ut;
  let sends = ref [] in
  let pacer =
    Preemptible.Pacer.create sim ~rate_per_sec:100_000.0
      ~source:(Preemptible.Pacer.utimer_source ut ~uintr:fabric)
      ~send:(fun ~now -> sends := now :: !sends)
  in
  Preemptible.Pacer.start pacer;
  Sim.run_until sim (Units.ms 10);
  Preemptible.Pacer.stop pacer;
  Utimer.stop ut;
  Sim.run sim;
  let s = Preemptible.Pacer.stats pacer in
  check_bool "sent ~1000" true (abs (s.Preemptible.Pacer.sends - 1000) <= 2);
  check_bool "rate error under 1%" true (s.Preemptible.Pacer.rate_error < 0.01);
  (* absolute schedule: gaps do not drift *)
  check_bool "low jitter" true (s.Preemptible.Pacer.std_gap_us < 1.0)

let test_pacer_ktimer_floored () =
  let sim = Sim.create () in
  let costs = Ksim.Costs.default in
  let signal = Ksim.Signal.create sim costs ~rng:(Sim.fork_rng sim) in
  let kt = Ksim.Ktimer.create sim costs ~rng:(Sim.fork_rng sim) ~signal in
  let pacer =
    Preemptible.Pacer.create sim ~rate_per_sec:100_000.0
      ~source:(Preemptible.Pacer.ktimer_source sim kt)
      ~send:(fun ~now:_ -> ())
  in
  Preemptible.Pacer.start pacer;
  Sim.run_until sim (Units.ms 10);
  Preemptible.Pacer.stop pacer;
  Sim.run sim;
  let s = Preemptible.Pacer.stats pacer in
  (* 10us target spacing against a ~60us kernel floor *)
  check_bool "cannot reach the target rate" true
    (s.Preemptible.Pacer.achieved_rate_per_s < 25_000.0)

let test_pacer_stop_halts () =
  let sim = Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let hwt = Hw.Hwtimer.create sim fabric in
  let count = ref 0 in
  let pacer =
    Preemptible.Pacer.create sim ~rate_per_sec:1_000_000.0
      ~source:(Preemptible.Pacer.hwtimer_source hwt ~uintr:fabric)
      ~send:(fun ~now:_ -> incr count)
  in
  Preemptible.Pacer.start pacer;
  Sim.run_until sim 10_500;
  Preemptible.Pacer.stop pacer;
  Sim.run sim;
  check_bool "sends stop after stop ()" true (!count <= 11)

let test_pacer_validation () =
  let sim = Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let hwt = Hw.Hwtimer.create sim fabric in
  Alcotest.check_raises "zero rate" (Invalid_argument "Pacer.create: rate must be positive")
    (fun () ->
      ignore
        (Preemptible.Pacer.create sim ~rate_per_sec:0.0
           ~source:(Preemptible.Pacer.hwtimer_source hwt ~uintr:fabric)
           ~send:(fun ~now:_ -> ())))

(* ------------------------------------------------------------------ *)
(* Trace replay: exact accounting                                      *)
(* ------------------------------------------------------------------ *)

let trace_cfg ?(mechanism = Server.No_mechanism) ?(policy = Preemptible.Policy.no_preempt) () =
  Server.default_config ~n_workers:1 ~policy ~mechanism

let mk ~id ~at ~svc ?(cls = Workload.Request.Latency_critical) () =
  Workload.Request.make ~id ~arrival_ns:at ~service_ns:svc ~cls

let test_trace_single_request_exact () =
  (* dispatch (250) + launch (80) + service (10_000) = 10_330 exactly. *)
  let r =
    Server.run_trace (trace_cfg ())
      ~requests:[ mk ~id:0 ~at:0 ~svc:10_000 () ]
      ~duration_ns:(Units.ms 1)
  in
  check_int "one completion" 1 r.Server.completed;
  Alcotest.(check (float 1e-9)) "exact latency" 10_330.0 r.Server.all.Stat.Summary.mean

let test_trace_fifo_ordering_exact () =
  (* Two simultaneous arrivals on one worker, run to completion:
     r0 finishes at 10_330; worker pays complete(40), relaunch(80);
     r1 (popped by the dispatcher at 500) starts at 10_450 and finishes
     at 11_450: latency 11_450. *)
  let r =
    Server.run_trace (trace_cfg ())
      ~requests:[ mk ~id:0 ~at:0 ~svc:10_000 (); mk ~id:1 ~at:0 ~svc:1_000 () ]
      ~duration_ns:(Units.ms 1)
  in
  check_int "two completions" 2 r.Server.completed;
  Alcotest.(check (float 1e-9)) "exact max (r1 queued behind r0)" 11_450.0
    r.Server.all.Stat.Summary.max;
  Alcotest.(check (float 1e-9)) "exact mean" ((10_330.0 +. 11_450.0) /. 2.0)
    r.Server.all.Stat.Summary.mean

let test_trace_preemption_reorders () =
  (* With a 5us quantum the short second request overtakes the long
     first one instead of waiting 10us behind it. *)
  let completions = ref [] in
  let probes =
    {
      Server.on_complete =
        (fun ~now ~latency_ns:_ ~cls:_ -> completions := now :: !completions);
      on_window = (fun _ ~quantum_ns:_ -> ());
      on_tick = ignore;
    }
  in
  let r =
    Server.run_trace ~probes
      (trace_cfg
         ~mechanism:(Server.Uintr_utimer Utimer.default_config)
         ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
         ())
      ~requests:[ mk ~id:0 ~at:0 ~svc:50_000 (); mk ~id:1 ~at:0 ~svc:1_000 () ]
      ~duration_ns:(Units.ms 1)
  in
  check_int "two completions" 2 r.Server.completed;
  check_bool "long request was preempted" true (r.Server.preemptions >= 1);
  (match List.rev !completions with
  | [ first; second ] ->
    check_bool "short escaped HoL (finished well before the long)" true
      (first < 15_000 && second > 50_000)
  | l -> Alcotest.failf "expected 2 completions, got %d" (List.length l));
  (* the preempted request still received all its service *)
  check_bool "long sojourn >= its service" true
    (r.Server.all.Stat.Summary.max >= 51_000.0)

let test_trace_class_split () =
  let r =
    Server.run_trace (trace_cfg ())
      ~requests:
        [
          mk ~id:0 ~at:0 ~svc:1_000 ();
          mk ~id:1 ~at:5_000 ~svc:2_000 ~cls:Workload.Request.Best_effort ();
        ]
      ~duration_ns:(Units.ms 1)
  in
  (match (r.Server.lc, r.Server.be) with
  | Some lc, Some be ->
    check_int "one LC" 1 lc.Stat.Summary.count;
    check_int "one BE" 1 be.Stat.Summary.count
  | _ -> Alcotest.fail "expected both class summaries");
  check_int "offered" 2 r.Server.offered

let test_trace_validation () =
  check_bool "arrival beyond duration rejected" true
    (try
       ignore
         (Server.run_trace (trace_cfg ())
            ~requests:[ mk ~id:0 ~at:2_000 ~svc:10 () ]
            ~duration_ns:1_000);
       false
     with Invalid_argument _ -> true)

let test_trace_from_tracegen () =
  (* Tracegen output replays through the server without loss. *)
  let requests =
    Workload.Tracegen.generate
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:200_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 10) ()
  in
  let cfg =
    Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
      ~mechanism:(Server.Uintr_utimer Utimer.default_config)
  in
  let r = Server.run_trace cfg ~requests ~duration_ns:(Units.ms 10) in
  check_int "all requests completed" (List.length requests) r.Server.completed

(* Words a run leaves in the major heap: direct major allocations plus
   minor-heap survivors promoted during the run ([major_words] counts
   both).  Deterministic in one domain once the heap starts empty. *)
let major_words f =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = f () in
  (r, (Gc.quick_stat ()).Gc.major_words -. before)

(* The pool size is the application's limit, not an up-front cost: a
   run that never nears it returns the same result, and leaves the same
   major-heap footprint (8192 eagerly built contexts cost ~49k words),
   whatever the capacity. *)
let test_server_pool_capacity_independent () =
  let run capacity () =
    let cfg =
      Server.default_config ~n_workers:4
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
        ~mechanism:(Server.Uintr_utimer Utimer.default_config)
    in
    Server.run
      { cfg with Server.ctx_pool_capacity = capacity }
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:400_000.0)
      ~source:a1_source ~duration_ns:(Units.ms 20)
  in
  let large, large_words = major_words (run 8192) in
  let small, small_words = major_words (run 128) in
  check_bool "run stays under the small capacity" true (large.Server.ctx_high_water < 128);
  check_bool "identical results" true (compare large small = 0);
  check_bool
    (Printf.sprintf "major words %.0f vs %.0f" large_words small_words)
    true
    (Float.abs (large_words -. small_words) < 1024.0)

let server_conservation_property =
  QCheck.Test.make ~name:"server conserves requests across random loads/quanta" ~count:8
    QCheck.(pair (int_range 50 800) (int_range 3 100))
    (fun (rate_krps, quantum_us) ->
      let r =
        run_server
          ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(quantum_us * 1_000))
          ~rate:(float_of_int rate_krps *. 1_000.0)
          ~duration:(Units.ms 20) ()
      in
      r.Server.offered = r.Server.completed)

let suites =
  [
    ( "preemptible.context",
      [
        Alcotest.test_case "alloc/release" `Quick test_context_alloc_release;
        Alcotest.test_case "state machine" `Quick test_context_state_machine;
        Alcotest.test_case "validation" `Quick test_context_pool_validation;
        QCheck_alcotest.to_alcotest lazy_pool_matches_eager_model;
      ] );
    ( "preemptible.fn",
      [
        Alcotest.test_case "lifecycle" `Quick test_fn_lifecycle;
        Alcotest.test_case "infinite quantum" `Quick test_fn_infinite_quantum;
        Alcotest.test_case "invalid transitions" `Quick test_fn_invalid_transitions;
        Alcotest.test_case "pool reuse" `Quick test_fn_pool_reuse;
      ] );
    ( "preemptible.rqueue",
      [
        Alcotest.test_case "fifo + stats" `Quick test_rqueue_fifo_and_stats;
        Alcotest.test_case "pop_by" `Quick test_rqueue_pop_by;
        Alcotest.test_case "ring wraparound" `Quick test_rqueue_ring_wraparound;
        Alcotest.test_case "pop_by after wrap" `Quick test_rqueue_pop_by_after_wrap;
      ] );
    ( "preemptible.stats_window",
      [ Alcotest.test_case "roll" `Quick test_stats_window_roll ] );
    ( "preemptible.quantum_controller",
      [
        Alcotest.test_case "high load decreases" `Quick test_controller_decreases_under_high_load;
        Alcotest.test_case "heavy tail decreases" `Quick test_controller_decreases_on_heavy_tail;
        Alcotest.test_case "low load increases" `Quick test_controller_increases_under_low_load;
        Alcotest.test_case "bounds" `Quick test_controller_respects_bounds;
        Alcotest.test_case "queue trigger" `Quick test_controller_queue_trigger;
        Alcotest.test_case "tail index" `Quick test_controller_tail_index;
        Alcotest.test_case "validation" `Quick test_controller_validation;
      ] );
    ( "preemptible.policy",
      [
        Alcotest.test_case "quanta" `Quick test_policy_quanta;
        Alcotest.test_case "per-class quantum" `Quick test_policy_be_quantum;
        Alcotest.test_case "adaptive follows controller" `Quick
          test_policy_adaptive_follows_controller;
        Alcotest.test_case "ps alternates" `Quick test_policy_ps_alternates;
      ] );
    ( "preemptible.server",
      [
        Alcotest.test_case "conservation" `Slow test_server_conservation;
        Alcotest.test_case "preemption beats HoL" `Slow test_server_preemption_beats_hol_blocking;
        Alcotest.test_case "deterministic" `Slow test_server_deterministic;
        Alcotest.test_case "seed sensitivity" `Slow test_server_seed_changes_run;
        Alcotest.test_case "uintr beats signals" `Slow test_server_kernel_mech_worse_than_uintr;
        Alcotest.test_case "adaptive policy" `Slow test_server_adaptive_policy_runs;
        Alcotest.test_case "warmup" `Slow test_server_warmup_excludes_early;
        Alcotest.test_case "lc/be split" `Slow test_server_be_lc_split;
        Alcotest.test_case "srpt oracle" `Slow test_server_srpt_oracle_beats_fcfs;
        Alcotest.test_case "edf discipline" `Slow test_server_edf_orders_by_deadline;
        Alcotest.test_case "slo cancellation" `Slow test_server_cancellation;
        Alcotest.test_case "pool capacity independent" `Quick
          test_server_pool_capacity_independent;
        Alcotest.test_case "trace: single exact" `Quick test_trace_single_request_exact;
        Alcotest.test_case "trace: fifo exact" `Quick test_trace_fifo_ordering_exact;
        Alcotest.test_case "trace: preemption reorders" `Quick test_trace_preemption_reorders;
        Alcotest.test_case "trace: class split" `Quick test_trace_class_split;
        Alcotest.test_case "trace: validation" `Quick test_trace_validation;
        Alcotest.test_case "trace: tracegen replay" `Slow test_trace_from_tracegen;
      ] );
    ( "preemptible.pacer",
      [
        Alcotest.test_case "utimer exact" `Quick test_pacer_utimer_exact;
        Alcotest.test_case "ktimer floored" `Quick test_pacer_ktimer_floored;
        Alcotest.test_case "stop halts" `Quick test_pacer_stop_halts;
        Alcotest.test_case "validation" `Quick test_pacer_validation;
        Alcotest.test_case "validation" `Quick test_server_validation;
        QCheck_alcotest.to_alcotest server_conservation_property;
      ] );
  ]
