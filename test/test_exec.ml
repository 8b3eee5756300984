(* The parallel sweep engine: pool semantics (ordering, failure
   propagation, stats), the determinism contract (sweep at any worker
   count = List.map), merge associativity of the statistics the sweeps
   fold, and the seeding helper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_run_all_order () =
  (* Adversarial durations: early tasks are the slowest, so with >1
     worker they complete out of submission order — results must come
     back in submission order regardless. *)
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      let n = 20 in
      let tasks =
        List.init n (fun i () ->
            let spin = (n - i) * 2000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := (!acc + k) land 0xffff
            done;
            ignore !acc;
            i * i)
      in
      let results = Exec.Pool.run_all pool tasks in
      Exec.Pool.shutdown pool;
      Alcotest.(check (list int))
        (Printf.sprintf "submission order at jobs=%d" jobs)
        (List.init n (fun i -> i * i))
        results)
    [ 1; 2; 4 ]

exception Boom of int

let test_failure_propagates () =
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      let p_ok = Exec.Pool.submit pool (fun () -> 1) in
      let p_bad = Exec.Pool.submit pool (fun () -> raise (Boom 7)) in
      let p_ok2 = Exec.Pool.submit pool (fun () -> 2) in
      check_int "before failure" 1 (Exec.Pool.await p_ok);
      (match Exec.Pool.await p_bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ());
      (* One task failing must not poison the rest of the batch. *)
      check_int "after failure" 2 (Exec.Pool.await p_ok2);
      let s = Exec.Pool.stats pool in
      Exec.Pool.shutdown pool;
      check_int "failed count" 1 s.Exec.Pool.failed;
      check_int "completed count" 2 s.Exec.Pool.completed)
    [ 1; 2 ]

let test_submit_after_shutdown () =
  let pool = Exec.Pool.create ~jobs:2 () in
  Exec.Pool.shutdown pool;
  match Exec.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_stats_accounting () =
  let pool = Exec.Pool.create ~jobs:3 () in
  let n = 30 in
  let _ = Exec.Pool.run_all pool (List.init n (fun i () -> i)) in
  let s = Exec.Pool.stats pool in
  Exec.Pool.shutdown pool;
  check_int "jobs" 3 s.Exec.Pool.jobs;
  check_int "submitted" n s.Exec.Pool.submitted;
  check_int "completed" n s.Exec.Pool.completed;
  check_int "failed" 0 s.Exec.Pool.failed;
  check_int "per-worker totals"
    n
    (Array.fold_left ( + ) 0 s.Exec.Pool.tasks_per_worker);
  check_bool "occupancy within worker count" true
    (s.Exec.Pool.max_occupancy >= 1 && s.Exec.Pool.max_occupancy <= 3)

let test_sequential_occupancy () =
  (* jobs=1 runs inline: never more than one task in flight. *)
  let pool = Exec.Pool.create ~jobs:1 () in
  let _ = Exec.Pool.run_all pool (List.init 10 (fun i () -> i)) in
  let s = Exec.Pool.stats pool in
  Exec.Pool.shutdown pool;
  check_int "peak occupancy" 1 s.Exec.Pool.max_occupancy

(* ------------------------------------------------------------------ *)
(* Trace probes                                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_spans_balance () =
  let now = ref 0 in
  let trace =
    Obs.Trace.create
      ~config:{ Obs.Trace.capacity = 1024; categories = [ Obs.Trace.Exec ] }
      ~clock:(fun () -> incr now; !now)
      ()
  in
  let pool = Exec.Pool.create ~trace ~label:"unit" ~jobs:2 () in
  let n = 8 in
  let _ = Exec.Pool.run_all pool (List.init n (fun i () -> i)) in
  Exec.Pool.shutdown pool;
  let begins = ref 0 and ends = ref 0 and counters = ref 0 in
  Obs.Trace.iter trace (fun ev ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Span_begin -> incr begins
      | Obs.Trace.Span_end -> incr ends
      | Obs.Trace.Counter -> incr counters
      | _ -> ());
  check_int "span begins" n !begins;
  check_int "span ends" n !ends;
  (* occupancy counter on both edges of every task *)
  check_int "occupancy counters" (2 * n) !counters

(* ------------------------------------------------------------------ *)
(* Sweep determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* A miniature simulation: deterministic function of the input alone,
   but with enough RNG churn to notice shared state. *)
let mini_sim seed =
  let rng = Engine.Rng.create seed in
  let acc = ref 0L in
  for _ = 1 to 1000 do
    acc := Int64.add !acc (Engine.Rng.bits64 rng)
  done;
  !acc

let test_sweep_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Exec.Sweep.run ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Exec.Sweep.run ~jobs:4 (fun x -> x * x) [ 3 ])

let qcheck_sweep_is_map =
  QCheck.Test.make ~count:30 ~name:"Sweep.run ~jobs:n f xs = List.map f xs"
    QCheck.(pair (int_range 1 8) (small_list int64))
    (fun (jobs, seeds) ->
      let f = mini_sim in
      Exec.Sweep.run ~jobs f seeds = List.map f seeds)

let test_sweep_real_sim_parallel_eq_sequential () =
  (* The actual acceptance property on a real (small) server run: the
     full simulation pipeline, not just a toy RNG loop. *)
  let run_point rate =
    let cfg =
      Preemptible.Server.default_config ~n_workers:2
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
        ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
    in
    let r =
      Preemptible.Server.run cfg
        ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
        ~source:
          (Workload.Source.of_dist Workload.Service_dist.workload_b
             ~cls:Workload.Request.Latency_critical)
        ~duration_ns:2_000_000
    in
    (r.Preemptible.Server.completed, r.Preemptible.Server.all.Stat.Summary.p99)
  in
  let rates = [ 100_000.0; 200_000.0; 300_000.0; 400_000.0 ] in
  let seq = Exec.Sweep.run ~jobs:1 run_point rates in
  let par = Exec.Sweep.run ~jobs:4 run_point rates in
  check_bool "parallel = sequential (bit-identical)" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Merge combinators                                                   *)
(* ------------------------------------------------------------------ *)

let summary_of values =
  let s = Stat.Summary.create () in
  List.iter (Stat.Summary.record s) values;
  s

let qcheck_summary_merge_assoc =
  QCheck.Test.make ~count:50 ~name:"Summary.merge_into is associative"
    QCheck.(
      triple
        (small_list (float_range 1.0 1e6))
        (small_list (float_range 1.0 1e6))
        (small_list (float_range 1.0 1e6)))
    (fun (a, b, c) ->
      QCheck.assume (a <> [] || b <> [] || c <> []);
      (* (a <- b) <- c versus a' <- (b' <- c') *)
      let left =
        let sa = summary_of a and sb = summary_of b and sc = summary_of c in
        Stat.Summary.merge_into ~dst:sa ~src:sb;
        Stat.Summary.merge_into ~dst:sa ~src:sc;
        Stat.Summary.report sa
      in
      let right =
        let sa = summary_of a and sb = summary_of b and sc = summary_of c in
        Stat.Summary.merge_into ~dst:sb ~src:sc;
        Stat.Summary.merge_into ~dst:sa ~src:sb;
        Stat.Summary.report sa
      in
      left.Stat.Summary.count = right.Stat.Summary.count
      && left.Stat.Summary.p50 = right.Stat.Summary.p50
      && left.Stat.Summary.p99 = right.Stat.Summary.p99
      && Float.abs (left.Stat.Summary.mean -. right.Stat.Summary.mean)
         <= 1e-9 *. Float.abs left.Stat.Summary.mean)

let test_sweep_summaries () =
  let chunks = [ [ 1.0; 2.0 ]; [ 3.0 ]; [ 4.0; 5.0; 6.0 ] ] in
  let merged = Exec.Sweep.summaries ~jobs:2 summary_of chunks in
  let direct = summary_of [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ] in
  check_int "count" (Stat.Summary.count direct) (Stat.Summary.count merged);
  check_bool "same p50" true
    ((Stat.Summary.report merged).Stat.Summary.p50
    = (Stat.Summary.report direct).Stat.Summary.p50)

let test_timeseries_merge () =
  let mk values =
    let ts = Stat.Timeseries.create ~window_ns:100 in
    List.iter (fun (t, v) -> Stat.Timeseries.record ts ~time:t v) values;
    ts
  in
  let merged =
    Exec.Sweep.timeseries ~jobs:2 mk
      [ [ (10, 1.0); (250, 3.0) ]; [ (20, 5.0); (110, 7.0) ] ]
  in
  let direct = mk [ (10, 1.0); (250, 3.0); (20, 5.0); (110, 7.0) ] in
  check_bool "same points" true
    (Stat.Timeseries.points merged = Stat.Timeseries.points direct);
  (* window mismatch must be rejected, not silently misaligned *)
  let a = Stat.Timeseries.create ~window_ns:100 in
  let b = Stat.Timeseries.create ~window_ns:200 in
  match Stat.Timeseries.merge_into ~dst:a ~src:b with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Domain reservoir                                                    *)
(* ------------------------------------------------------------------ *)

let self_id () = (Domain.self () :> int)

(* Run one task per worker, each waiting until all have started, so
   every worker of the pool reports the domain it runs on. *)
let worker_ids ?(probe = fun () -> ()) pool =
  let jobs = Exec.Pool.jobs pool in
  let arrived = Atomic.make 0 in
  Exec.Pool.run_all pool
    (List.init jobs (fun _ () ->
         Atomic.incr arrived;
         while Atomic.get arrived < jobs do
           Unix.sleepf 50e-6
         done;
         probe ();
         self_id ()))
  |> List.sort_uniq compare

let pool_ids ?probe ~jobs () =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> worker_ids ?probe pool)

(* Reuse lasts only while no gap between pools reaches the grace
   period; a host that stalls the test that long retires the parked
   domains.  Up to three attempts absorb such a stall. *)
let with_retries f =
  let rec go k =
    match f () with
    | Ok () -> ()
    | Error m -> if k = 1 then Alcotest.fail m else go (k - 1)
  in
  go 3

let wait_reservoir_empty () =
  let t0 = Unix.gettimeofday () in
  while Reservoir.parked () > 0 && Unix.gettimeofday () -. t0 < 5.0 do
    Unix.sleepf Reservoir.grace_s
  done;
  check_int "every parked domain retired" 0 (Reservoir.parked ())

let test_reservoir_reuse () =
  with_retries (fun () ->
      let ids = List.concat (List.init 20 (fun _ -> pool_ids ~jobs:2 ())) in
      match List.sort_uniq compare ids with
      | [ _; _ ] -> Ok ()
      | d -> Error (Printf.sprintf "20 jobs=2 pools ran on %d distinct domains" (List.length d)))

let test_reservoir_grace () =
  let before = pool_ids ~jobs:2 () in
  wait_reservoir_empty ();
  let after = pool_ids ~jobs:2 () in
  check_int "two workers" 2 (List.length after);
  check_bool "fresh domains after the grace period" true
    (List.for_all (fun id -> not (List.mem id before)) after)

let test_reservoir_failed_task () =
  (* Directly: a function that raises re-raises at join, and its domain
     takes the next function. *)
  with_retries (fun () ->
      let first = ref (-1) and second = ref (-2) in
      let h = Reservoir.acquire (fun () -> first := self_id (); raise (Boom 3)) in
      (match Reservoir.join h with () -> Alcotest.fail "expected Boom" | exception Boom 3 -> ());
      Reservoir.join (Reservoir.acquire (fun () -> second := self_id ()));
      if !first = !second then Ok () else Error "domain not reused after its function raised");
  (* Through a pool: a failed task leaves both workers reusable. *)
  with_retries (fun () ->
      let pool = Exec.Pool.create ~jobs:2 () in
      let ids = worker_ids pool in
      (match Exec.Pool.await (Exec.Pool.submit pool (fun () -> raise (Boom 4))) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 4 -> ());
      Exec.Pool.shutdown pool;
      if pool_ids ~jobs:2 () = ids then Ok () else Error "pool after a failed task got new domains")

let test_reservoir_nested_and_concurrent () =
  let outer = Exec.Pool.create ~jobs:2 () in
  let results =
    Exec.Pool.run_all outer
      (List.init 3 (fun i () -> Exec.Sweep.run ~jobs:2 (fun x -> (10 * i) + x) [ 1; 2; 3 ]))
  in
  Exec.Pool.shutdown outer;
  Alcotest.(check (list (list int))) "pools inside tasks"
    [ [ 1; 2; 3 ]; [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    results;
  let a = Exec.Pool.create ~jobs:2 () and b = Exec.Pool.create ~jobs:2 () in
  let ids_a = worker_ids a and ids_b = worker_ids b in
  Exec.Pool.shutdown a;
  Exec.Pool.shutdown b;
  check_int "four workers" 4 (List.length (List.sort_uniq compare (ids_a @ ids_b)))

let test_reservoir_sweeps_agree () =
  for k = 1 to 20 do
    let seeds = Exec.Sweep.seeds ~seed:(Int64.of_int k) 8 in
    check_bool
      (Printf.sprintf "sweep %d: jobs=2 = jobs=1" k)
      true
      (Exec.Sweep.run ~jobs:2 mini_sim seeds = Exec.Sweep.run ~jobs:1 mini_sim seeds)
  done

(* A fiber pool's worker domain goes back to the reservoir: an Exec task
   that lands on it must not find the finished pool's runtime. *)
let test_reservoir_clears_fiber_worker () =
  with_retries (fun () ->
      let fp = Fiber_rt.Pool.create ~workers:1 () in
      let fiber_dom = Atomic.make (-1) in
      Fiber_rt.Pool.submit fp (fun () -> Atomic.set fiber_dom (self_id ()));
      Fiber_rt.Pool.drain fp;
      Fiber_rt.Pool.shutdown fp;
      let off_pool = Atomic.make 0 in
      let probe () =
        Fiber_rt.Pool.checkpoint ();
        match Fiber_rt.Pool.sleep_ns 1_000 with
        | () -> ()
        | exception Invalid_argument m ->
          if Astring_contains.contains m "not on a pool worker" then Atomic.incr off_pool
      in
      let ids = pool_ids ~probe ~jobs:2 () in
      check_int "sleep_ns raised off the pool on every worker" 2 (Atomic.get off_pool);
      if List.mem (Atomic.get fiber_dom) ids then Ok ()
      else Error "no Exec worker reused the fiber pool's worker domain")

(* ------------------------------------------------------------------ *)
(* Seeding / env helpers                                               *)
(* ------------------------------------------------------------------ *)

let test_task_seed_deterministic () =
  let s1 = Exec.Sweep.seeds ~seed:42L 16 in
  let s2 = Exec.Sweep.seeds ~seed:42L 16 in
  check_bool "same seed, same streams" true (s1 = s2);
  let distinct = List.sort_uniq compare s1 in
  check_int "all distinct" 16 (List.length distinct);
  let other = Exec.Sweep.seeds ~seed:43L 16 in
  check_bool "different base seed diverges" true (s1 <> other)

let test_getenv_nonempty () =
  Unix.putenv "LP_TEST_ENV_X" "";
  check_bool "empty is unset" true (Exec.Env.getenv_nonempty "LP_TEST_ENV_X" = None);
  Unix.putenv "LP_TEST_ENV_X" "v";
  check_bool "set" true (Exec.Env.getenv_nonempty "LP_TEST_ENV_X" = Some "v")

let suites =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "results in submission order" `Quick test_run_all_order;
        Alcotest.test_case "failure propagates to awaiter" `Quick test_failure_propagates;
        Alcotest.test_case "submit after shutdown rejected" `Quick test_submit_after_shutdown;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "sequential peak occupancy = 1" `Quick test_sequential_occupancy;
        Alcotest.test_case "trace spans balance" `Quick test_trace_spans_balance;
      ] );
    ( "exec.sweep",
      [
        Alcotest.test_case "empty and singleton" `Quick test_sweep_empty_and_singleton;
        QCheck_alcotest.to_alcotest qcheck_sweep_is_map;
        Alcotest.test_case "server sweep: parallel = sequential" `Quick
          test_sweep_real_sim_parallel_eq_sequential;
        Alcotest.test_case "summaries fold" `Quick test_sweep_summaries;
        Alcotest.test_case "timeseries merge" `Quick test_timeseries_merge;
      ] );
    ( "exec.reservoir",
      [
        Alcotest.test_case "back-to-back pools reuse two domains" `Quick test_reservoir_reuse;
        Alcotest.test_case "parked domains retire after the grace" `Quick test_reservoir_grace;
        Alcotest.test_case "a failed task leaves its domain reusable" `Quick
          test_reservoir_failed_task;
        Alcotest.test_case "nested and concurrent pools" `Quick
          test_reservoir_nested_and_concurrent;
        Alcotest.test_case "20 sweeps: jobs=2 = jobs=1" `Quick test_reservoir_sweeps_agree;
        Alcotest.test_case "fiber pool worker DLS cleared" `Quick
          test_reservoir_clears_fiber_worker;
      ] );
    ( "exec.env",
      [
        QCheck_alcotest.to_alcotest qcheck_summary_merge_assoc;
        Alcotest.test_case "task seeds deterministic" `Quick test_task_seed_deterministic;
        Alcotest.test_case "getenv_nonempty" `Quick test_getenv_nonempty;
      ] );
  ]
