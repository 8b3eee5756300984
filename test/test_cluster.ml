(* Tests for lib/cluster: fleet conservation, load-balancer quality
   ordering against the pooled oracle, work stealing, heterogeneous
   fleets, validation, and sweep determinism. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lc_source dist = Workload.Source.of_dist dist ~cls:Workload.Request.Latency_critical

let member ~workers =
  Preemptible.Server.default_config ~n_workers:workers
    ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(Units.us 5))
    ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)

(* A homogeneous fleet; [Array.init] gives each member its own config
   (and so its own policy state). *)
let fleet_config ~n ~lb ~workers =
  {
    Cluster.members = Array.init n (fun _ -> member ~workers);
    lb;
    steal = None;
    seed = 42L;
    max_events = 400_000_000;
    tick_ns = None;
  }

(* Offered rate as a fraction of total fleet capacity. *)
let fleet_rate ~n ~workers ~load dist =
  load *. float_of_int (n * workers) *. 1e9 /. Workload.Service_dist.mean_ns dist ~now:0

let run_fleet ?steal ?tick_ns ?(lb = Cluster.Random) ?(n = 4) ?(workers = 2)
    ?(seed = 1L) ?(load = 0.6) ?(duration = Units.ms 20) ?(warmup = 0) () =
  let dist = Workload.Service_dist.workload_b in
  let cfg =
    { (fleet_config ~n ~lb ~workers) with Cluster.steal; seed; tick_ns }
  in
  Cluster.run ~warmup_ns:warmup cfg
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:(fleet_rate ~n ~workers ~load dist))
    ~source:(lc_source dist) ~duration_ns:duration

let conserved (f : Cluster.fleet) =
  f.Cluster.offered
  = f.Cluster.completed + f.Cluster.cancelled + f.Cluster.dropped + f.Cluster.shed

(* ------------------------------------------------------------------ *)
(* Fleet basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_fleet_basics () =
  let r = run_fleet ~lb:Cluster.Random () in
  let f = r.Cluster.fleet in
  check_int "per-server results" 4 (Array.length r.Cluster.per_server);
  check_bool "work arrived" true (f.Cluster.offered > 1_000);
  check_bool "conservation" true (conserved f);
  check_int "no guard, everything completes" f.Cluster.offered f.Cluster.completed;
  check_int "goodput = completed without timeouts" f.Cluster.completed f.Cluster.goodput;
  check_int "dispatch decisions = offered (warmup 0, no retries)"
    f.Cluster.offered
    (Array.fold_left ( + ) 0 f.Cluster.dispatched);
  check_bool "imbalance at least 1" true (f.Cluster.imbalance >= 1.0);
  check_bool "quantiles ordered" true
    (f.Cluster.p50_us <= f.Cluster.p90_us && f.Cluster.p90_us <= f.Cluster.p99_us);
  (* fleet counters are the per-server sums *)
  let sum field = Array.fold_left (fun a r -> a + field r) 0 r.Cluster.per_server in
  check_int "completed is the per-server sum"
    (sum (fun r -> r.Preemptible.Server.completed))
    f.Cluster.completed

let test_round_robin_even () =
  let r = run_fleet ~lb:Cluster.Round_robin () in
  let d = r.Cluster.fleet.Cluster.dispatched in
  let lo = Array.fold_left min max_int d and hi = Array.fold_left max 0 d in
  check_bool "rr spread within 1" true (hi - lo <= 1);
  check_bool "rr imbalance ~1" true (r.Cluster.fleet.Cluster.imbalance < 1.01)

(* The merged fleet sketch must be exactly the concatenation of the
   member streams: counts add up, and the fleet mean matches the
   completion-weighted member mean. *)
let test_sketch_merge_exact () =
  let r = run_fleet ~lb:Cluster.Least_loaded () in
  let f = r.Cluster.fleet in
  check_int "sketch count = fleet completed" f.Cluster.completed
    (Obs.Sketch.count r.Cluster.sketch);
  let member_sum =
    Array.fold_left
      (fun acc (s : Preemptible.Server.result) ->
        acc +. (s.Preemptible.Server.all.Stat.Summary.mean *. float_of_int s.Preemptible.Server.completed))
      0.0 r.Cluster.per_server
  in
  let fleet_mean_ns = f.Cluster.mean_us *. 1e3 in
  let expect = member_sum /. float_of_int f.Cluster.completed in
  check_bool "fleet mean = weighted member mean" true
    (Float.abs (fleet_mean_ns -. expect) /. expect < 0.01)

let test_telemetry_ticks () =
  let ticks = ref 0 and last_completed = ref 0 and monotone = ref true in
  let probes =
    {
      Cluster.no_probes with
      Cluster.on_tick =
        (fun tk ->
          incr ticks;
          if tk.Cluster.ck_completed < !last_completed then monotone := false;
          last_completed := tk.Cluster.ck_completed;
          if Array.length tk.Cluster.ck_inflight <> 4 then monotone := false);
    }
  in
  let dist = Workload.Service_dist.workload_b in
  let cfg =
    {
      (fleet_config ~n:4 ~lb:Cluster.Power_of_two ~workers:2) with
      Cluster.tick_ns = Some (Units.ms 1);
      seed = 7L;
    }
  in
  let _ =
    Cluster.run ~probes cfg
      ~arrival:
        (Workload.Arrival.poisson
           ~rate_per_sec:(fleet_rate ~n:4 ~workers:2 ~load:0.5 dist))
      ~source:(lc_source dist) ~duration_ns:(Units.ms 20)
  in
  check_bool "ticks fired" true (!ticks >= 15);
  check_bool "tick frames consistent" true !monotone

(* ------------------------------------------------------------------ *)
(* Model: pooled oracle <= JSQ <= Random                               *)
(* ------------------------------------------------------------------ *)

let test_jsq_vs_oracle () =
  let dist = Workload.Service_dist.workload_b in
  let n = 3 and workers = 2 and load = 0.75 in
  let rate = fleet_rate ~n ~workers ~load dist in
  let duration = Units.ms 40 in
  (* the pooled oracle: one server with all n*workers cores sharing a
     queue — a lower bound no dispatch policy over partitions can beat *)
  let pooled =
    Preemptible.Server.run
      { (member ~workers:(n * workers)) with Preemptible.Server.seed = 5L }
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
      ~source:(lc_source dist) ~duration_ns:duration
  in
  let fleet lb = (run_fleet ~lb ~n ~workers ~seed:5L ~load ~duration ()).Cluster.fleet in
  let jsq = fleet Cluster.Least_loaded and random = fleet Cluster.Random in
  let pooled_mean_us = pooled.Preemptible.Server.all.Stat.Summary.mean /. 1e3 in
  check_bool "pooled oracle <= jsq (mean)" true
    (pooled_mean_us <= jsq.Cluster.mean_us *. 1.05);
  check_bool "jsq <= random (mean)" true (jsq.Cluster.mean_us < random.Cluster.mean_us);
  check_bool "jsq <= random (p99)" true (jsq.Cluster.p99_us < random.Cluster.p99_us)

let test_p2c_between () =
  (* p2c captures most of JSQ's benefit over random *)
  let fleet lb = (run_fleet ~lb ~n:8 ~seed:11L ~load:0.8 ~duration:(Units.ms 30) ()).Cluster.fleet in
  let jsq = fleet Cluster.Least_loaded
  and p2c = fleet Cluster.Power_of_two
  and random = fleet Cluster.Random in
  check_bool "p2c beats random (p99)" true (p2c.Cluster.p99_us < random.Cluster.p99_us);
  check_bool "jsq no worse than p2c x1.2 (mean)" true
    (jsq.Cluster.mean_us <= p2c.Cluster.mean_us *. 1.2)

(* ------------------------------------------------------------------ *)
(* Work stealing and heterogeneous fleets                              *)
(* ------------------------------------------------------------------ *)

(* A deliberately bad balancer over a heterogeneous fleet: round-robin
   sends the 1-worker member as much traffic as the 4-worker ones, so
   its queue grows and stealing has something to move. *)
let hetero_cfg ~steal ~seed =
  let members = [| member ~workers:1; member ~workers:4; member ~workers:4 |] in
  {
    Cluster.members;
    lb = Cluster.Round_robin;
    steal;
    seed;
    max_events = 400_000_000;
    tick_ns = None;
  }

let run_hetero ~steal =
  let dist = Workload.Service_dist.workload_b in
  let rate = 0.75 *. 9.0 *. 1e9 /. Workload.Service_dist.mean_ns dist ~now:0 in
  Cluster.run (hetero_cfg ~steal ~seed:3L)
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
    ~source:(lc_source dist) ~duration_ns:(Units.ms 30)

let test_stealing_rebalances () =
  let without = run_hetero ~steal:None in
  let with_ = run_hetero ~steal:(Some Cluster.default_steal) in
  check_bool "no stealing when disabled" true (without.Cluster.fleet.Cluster.stolen = 0);
  check_bool "stealing happened" true (with_.Cluster.fleet.Cluster.stolen > 0);
  check_bool "conservation with stealing" true (conserved with_.Cluster.fleet);
  check_bool "stealing improves fleet p99" true
    (with_.Cluster.fleet.Cluster.p99_us < without.Cluster.fleet.Cluster.p99_us)

let test_hetero_jsq_skews () =
  (* JSQ over the same lopsided fleet routes with capacity: the big
     members take more work than the 1-worker one *)
  let dist = Workload.Service_dist.workload_b in
  let rate = 0.7 *. 9.0 *. 1e9 /. Workload.Service_dist.mean_ns dist ~now:0 in
  let cfg = { (hetero_cfg ~steal:None ~seed:9L) with Cluster.lb = Cluster.Least_loaded } in
  let r =
    Cluster.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
      ~source:(lc_source dist) ~duration_ns:(Units.ms 30)
  in
  let d = r.Cluster.fleet.Cluster.dispatched in
  check_bool "jsq respects capacity" true (d.(1) > d.(0) && d.(2) > d.(0));
  check_bool "conservation (hetero)" true (conserved r.Cluster.fleet)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let raises name f =
    check_bool name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let dist = Workload.Service_dist.workload_b in
  let go cfg =
    Cluster.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:1000.0)
      ~source:(lc_source dist) ~duration_ns:(Units.ms 1)
  in
  let base = fleet_config ~n:2 ~lb:Cluster.Random ~workers:1 in
  raises "empty fleet" (fun () -> go { base with Cluster.members = [||] });
  raises "bad steal interval" (fun () ->
      go { base with Cluster.steal = Some { Cluster.default_steal with Cluster.interval_ns = 0 } });
  raises "bad steal batch" (fun () ->
      go { base with Cluster.steal = Some { Cluster.default_steal with Cluster.batch = 0 } });
  raises "bad tick" (fun () -> go { base with Cluster.tick_ns = Some 0 });
  let retry_member =
    {
      (member ~workers:1) with
      Preemptible.Server.guard =
        Some
          {
            Guard.disabled with
            Guard.timeout_ns = Some (Units.ms 1);
            retry = Some Guard.default_retry;
          };
    }
  in
  raises "stealing + retry guard" (fun () ->
      go
        {
          base with
          Cluster.members = [| retry_member; retry_member |];
          steal = Some Cluster.default_steal;
        });
  check_bool "lb_of_string roundtrip" true
    (List.for_all
       (fun lb -> Cluster.lb_of_string (Cluster.lb_name lb) = Ok lb)
       Cluster.all_lbs);
  check_bool "lb_of_string rejects junk" true
    (match Cluster.lb_of_string "bogus" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_conservation =
  QCheck.Test.make ~count:12 ~name:"fleet conservation: offered = sum of outcomes"
    QCheck.(triple (int_range 1 5) (int_range 0 3) small_int)
    (fun (n, lb_i, seed) ->
      let lb = List.nth Cluster.all_lbs lb_i in
      let steal = if seed mod 2 = 0 then Some Cluster.default_steal else None in
      let r =
        run_fleet ~lb ?steal ~n ~workers:2 ~seed:(Int64.of_int (seed + 1)) ~load:0.7
          ~duration:(Units.ms 10) ()
      in
      conserved r.Cluster.fleet
      && r.Cluster.fleet.Cluster.offered
         = Array.fold_left
             (fun a (s : Preemptible.Server.result) -> a + s.Preemptible.Server.offered)
             0 r.Cluster.per_server)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let fingerprint (r : Cluster.result) =
  let f = r.Cluster.fleet in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%.3f/%.3f/%d"
    f.Cluster.offered f.Cluster.completed f.Cluster.cancelled f.Cluster.dropped
    f.Cluster.shed f.Cluster.stolen f.Cluster.p50_us f.Cluster.p99_us f.Cluster.sim_events

let test_sweep_determinism () =
  let point (seed, lb_i) =
    let lb = List.nth Cluster.all_lbs lb_i in
    fingerprint
      (run_fleet ~lb ~steal:Cluster.default_steal ~n:3 ~seed ~load:0.8
         ~duration:(Units.ms 10) ())
  in
  let points = [ (1L, 0); (2L, 1); (3L, 2); (4L, 3); (5L, 2); (6L, 3) ] in
  let seq = Exec.Sweep.run ~jobs:1 point points in
  let par = Exec.Sweep.run ~jobs:8 point points in
  Alcotest.(check (list string)) "jobs 1 = jobs 8" seq par;
  (* and re-running the same seed is bit-identical *)
  check_bool "repeatable" true (point (1L, 0) = point (1L, 0))

let suites =
  [
    ( "cluster.fleet",
      [
        Alcotest.test_case "basics and conservation" `Quick test_fleet_basics;
        Alcotest.test_case "round-robin spreads evenly" `Quick test_round_robin_even;
        Alcotest.test_case "sketch merge is exact" `Quick test_sketch_merge_exact;
        Alcotest.test_case "telemetry ticks" `Quick test_telemetry_ticks;
      ] );
    ( "cluster.model",
      [
        Alcotest.test_case "pooled oracle <= jsq <= random" `Quick test_jsq_vs_oracle;
        Alcotest.test_case "p2c close to jsq, beats random" `Quick test_p2c_between;
      ] );
    ( "cluster.steal",
      [
        Alcotest.test_case "stealing rebalances a lopsided fleet" `Quick
          test_stealing_rebalances;
        Alcotest.test_case "jsq respects heterogeneous capacity" `Quick test_hetero_jsq_skews;
      ] );
    ("cluster.validation", [ Alcotest.test_case "rejects bad configs" `Quick test_validation ]);
    ("cluster.properties", [ QCheck_alcotest.to_alcotest prop_conservation ]);
    ( "cluster.determinism",
      [ Alcotest.test_case "sweep jobs 1 = jobs 8" `Quick test_sweep_determinism ] );
  ]
