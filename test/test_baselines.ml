(* Tests for the baseline systems and the timer-strategy experiments. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let a1_source =
  Workload.Source.of_dist Workload.Service_dist.workload_a1
    ~cls:Workload.Request.Latency_critical

let arrival rate = Workload.Arrival.poisson ~rate_per_sec:rate

(* ------------------------------------------------------------------ *)
(* Shinjuku                                                            *)
(* ------------------------------------------------------------------ *)

let run_shinjuku ?(quantum = Units.us 5) ?(rate = 400_000.0) () =
  let cfg = Baselines.Shinjuku.default_config ~n_workers:5 ~quantum_ns:quantum in
  Baselines.Shinjuku.run cfg ~arrival:(arrival rate) ~source:a1_source
    ~duration_ns:(Units.ms 50)

let test_shinjuku_conservation () =
  let r = run_shinjuku () in
  check_int "drained completely" r.Preemptible.Server.offered r.Preemptible.Server.completed

let test_shinjuku_preempts_under_load () =
  let r = run_shinjuku () in
  check_bool "preemptions happened" true (r.Preemptible.Server.preemptions > 100);
  check_bool "ipis counted" true
    (r.Preemptible.Server.timer_interrupts >= r.Preemptible.Server.preemptions)

let test_shinjuku_beats_no_preemption () =
  let preempt = run_shinjuku () in
  let nop = run_shinjuku ~quantum:max_int () in
  check_bool "preemption reduces p99" true
    (nop.Preemptible.Server.all.Stat.Summary.p99
    > 3.0 *. preempt.Preemptible.Server.all.Stat.Summary.p99)

let test_shinjuku_worse_than_libpreemptible () =
  (* Fig 8's headline: LibPreemptible's tail is well below Shinjuku's
     at the same load, because its preemption path is ~5x cheaper. *)
  let shinjuku = run_shinjuku ~rate:900_000.0 () in
  let policy = Preemptible.Policy.fcfs_preempt ~quantum_ns:(Units.us 5) in
  let cfg =
    Preemptible.Server.default_config ~n_workers:5 ~policy
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  let lp =
    Preemptible.Server.run cfg ~arrival:(arrival 900_000.0) ~source:a1_source
      ~duration_ns:(Units.ms 50)
  in
  check_bool "LP p99 below Shinjuku p99" true
    (lp.Preemptible.Server.all.Stat.Summary.p99
    < shinjuku.Preemptible.Server.all.Stat.Summary.p99)

(* Shinjuku's context pool has a fixed 8192 capacity; built eagerly it
   would leave ~49k words in the major heap of every run.  Created on
   first use, a short run's whole major-heap footprint stays far below
   that, and two identical runs agree to the word. *)
let test_shinjuku_pool_lazy () =
  let run () =
    let cfg = Baselines.Shinjuku.default_config ~n_workers:5 ~quantum_ns:(Units.us 5) in
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let r =
      Baselines.Shinjuku.run cfg ~arrival:(arrival 400_000.0) ~source:a1_source
        ~duration_ns:(Units.ms 20)
    in
    (r, (Gc.quick_stat ()).Gc.major_words -. before)
  in
  let a, a_words = run () in
  let b, b_words = run () in
  check_bool "identical results" true (compare a b = 0);
  check_bool "identical footprint" true (a_words = b_words);
  check_bool (Printf.sprintf "major words %.0f < 16384" a_words) true (a_words < 16384.0)

let test_shinjuku_apic_limit () =
  let cfg = Baselines.Shinjuku.default_config ~n_workers:64 ~quantum_ns:(Units.us 5) in
  Alcotest.check_raises "over APIC limit"
    (Invalid_argument "Shinjuku.run: worker count exceeds the APIC mapping limit") (fun () ->
      ignore
        (Baselines.Shinjuku.run cfg ~arrival:(arrival 1_000.0) ~source:a1_source
           ~duration_ns:1_000_000))

(* ------------------------------------------------------------------ *)
(* Libinger / Nopreempt wrappers                                       *)
(* ------------------------------------------------------------------ *)

let test_libinger_effective_quantum () =
  let c = Baselines.Libinger.default_config ~n_workers:5 ~quantum_ns:(Units.us 20) in
  check_int "floored at kernel granularity" Ksim.Costs.default.Ksim.Costs.ktimer_floor_ns
    (Baselines.Libinger.effective_quantum_ns c);
  let c2 = Baselines.Libinger.default_config ~n_workers:5 ~quantum_ns:(Units.us 100) in
  check_int "above floor" (Units.us 100) (Baselines.Libinger.effective_quantum_ns c2)

let test_libinger_runs_and_preempts () =
  let c = Baselines.Libinger.default_config ~n_workers:5 ~quantum_ns:(Units.us 20) in
  let r =
    Baselines.Libinger.run c ~arrival:(arrival 400_000.0) ~source:a1_source
      ~duration_ns:(Units.ms 50)
  in
  check_int "drained" r.Preemptible.Server.offered r.Preemptible.Server.completed;
  check_bool "some preemptions" true (r.Preemptible.Server.preemptions > 0)

let test_nopreempt_hol () =
  let c = Baselines.Nopreempt.default_config ~n_workers:5 in
  let r =
    Baselines.Nopreempt.run c ~arrival:(arrival 400_000.0) ~source:a1_source
      ~duration_ns:(Units.ms 50)
  in
  check_int "no preemptions by construction" 0 r.Preemptible.Server.preemptions;
  (* 500us jobs block 0.5us jobs: p99 lives near the long mode. *)
  check_bool "HoL-dominated p99" true (r.Preemptible.Server.all.Stat.Summary.p99 > 100_000.0)

(* ------------------------------------------------------------------ *)
(* Timer strategies — Fig 11 / Fig 12                                  *)
(* ------------------------------------------------------------------ *)

module Ts = Baselines.Timer_strategies

let overhead strategy threads =
  (Ts.delivery_overhead strategy ~threads ~interval_ns:(Units.us 100) ~rounds:120)
    .Ts.mean_overhead_us

let test_fig11_utimer_flat_and_fast () =
  let o1 = overhead Ts.Userspace_timer 1 in
  let o32 = overhead Ts.Userspace_timer 32 in
  check_bool "sub-3us at 32 threads" true (o32 < 3.0);
  check_bool "grows slowly" true (o32 < 10.0 *. o1)

let test_fig11_creation_time_superlinear () =
  let o1 = overhead Ts.Creation_time 1 in
  let o8 = overhead Ts.Creation_time 8 in
  let o32 = overhead Ts.Creation_time 32 in
  check_bool "monotone growth" true (o32 > o8 && o8 > o1);
  (* Superlinear: going 8->32 threads (4x) more than doubles overhead. *)
  check_bool "superlinear vs thread count" true (o32 /. o8 > 2.0);
  check_bool "reaches tens of us at 32" true (o32 > 40.0)

let test_fig11_staggered_beats_creation_time () =
  let aligned = overhead Ts.Creation_time 32 in
  let staggered = overhead Ts.Staggered 32 in
  check_bool "staggering avoids lock contention" true (staggered *. 3.0 < aligned)

let test_fig11_ordering_at_32 () =
  let u = overhead Ts.Userspace_timer 32 in
  let s = overhead Ts.Staggered 32 in
  let ch = overhead Ts.Chained 32 in
  let cr = overhead Ts.Creation_time 32 in
  check_bool "utimer < staggered" true (u < s);
  check_bool "staggered < chained" true (s < ch);
  check_bool "chained < creation-time" true (ch < cr)

let test_fig12_kernel_timer_floor () =
  let r = Ts.precision `Kernel_timer ~threads:26 ~target_ns:(Units.us 20) ~samples:800 in
  (* The paper: "kernel timer's granularity cannot go down to 20us
     (which is why we see a line around 60us)". *)
  check_bool "floors near 60us" true (r.Ts.mean_gap_us > 55.0);
  check_bool "large relative error" true (r.Ts.rel_error > 1.5)

let test_fig12_utimer_precise () =
  let r = Ts.precision `Utimer ~threads:26 ~target_ns:(Units.us 20) ~samples:800 in
  check_bool "~1% relative error" true (r.Ts.rel_error < 0.02);
  let r100 = Ts.precision `Utimer ~threads:26 ~target_ns:(Units.us 100) ~samples:800 in
  check_bool "100us also precise" true (r100.Ts.rel_error < 0.02);
  check_bool "sample series exported" true (Array.length r100.Ts.sample_gaps_us > 100)

let test_strategy_validation () =
  Alcotest.check_raises "bad threads"
    (Invalid_argument "Timer_strategies.delivery_overhead: non-positive parameter") (fun () ->
      ignore (Ts.delivery_overhead Ts.Chained ~threads:0 ~interval_ns:1 ~rounds:1))

(* ------------------------------------------------------------------ *)
(* Attack scenarios (Sec VII)                                          *)
(* ------------------------------------------------------------------ *)

module Atk = Baselines.Attack

let attack scenario storm =
  Atk.run scenario ~storm_per_sec:storm ~victim_rate:300_000.0 ~duration_ns:(Units.ms 50)

let test_attack_libpreemptible_immune () =
  let r = attack Atk.Libpreemptible_storm 5_000_000.0 in
  check_bool "storm attempted" true (r.Atk.attempted > 100_000);
  check_int "nothing delivered (no UITT entry)" 0 r.Atk.delivered;
  let baseline = attack Atk.Libpreemptible_storm 0.0 in
  Alcotest.(check (float 0.001)) "p99 unchanged under storm" baseline.Atk.victim_p99_us
    r.Atk.victim_p99_us

let test_attack_native_uintr_degrades () =
  let calm = attack Atk.Native_uintr_storm 0.0 in
  let stormed = attack Atk.Native_uintr_storm 5_000_000.0 in
  check_bool "interrupts delivered" true (stormed.Atk.delivered > 100_000);
  check_bool "victim tail degrades" true
    (stormed.Atk.victim_p99_us > 1.5 *. calm.Atk.victim_p99_us)

let test_attack_apic_worst () =
  let uintr = attack Atk.Native_uintr_storm 1_000_000.0 in
  let apic = attack Atk.Shinjuku_apic_storm 1_000_000.0 in
  check_bool "APIC storm (kernel interrupt path) hits harder" true
    (apic.Atk.victim_p99_us > 3.0 *. uintr.Atk.victim_p99_us)

let test_attack_validation () =
  Alcotest.check_raises "negative storm" (Invalid_argument "Attack.run: negative storm rate")
    (fun () ->
      ignore
        (Atk.run Atk.Native_uintr_storm ~storm_per_sec:(-1.0) ~victim_rate:1.0
           ~duration_ns:1_000))

(* ------------------------------------------------------------------ *)
(* Hardware offload mechanism / power                                  *)
(* ------------------------------------------------------------------ *)

let test_hw_offload_mechanism () =
  let cfg =
    Preemptible.Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(Units.us 5))
      ~mechanism:Preemptible.Server.Uintr_hw_offload
  in
  let r =
    Preemptible.Server.run cfg ~arrival:(arrival 600_000.0) ~source:a1_source
      ~duration_ns:(Units.ms 40)
  in
  check_int "drained" r.Preemptible.Server.offered r.Preemptible.Server.completed;
  check_bool "preempted without a timer core" true (r.Preemptible.Server.preemptions > 1_000);
  (* Comparators don't quantize to a poll period, so the tail should be
     no worse than the timer-core version. *)
  let cfg_tc =
    { cfg with
      Preemptible.Server.mechanism = Preemptible.Server.Uintr_utimer Utimer.default_config }
  in
  let tc =
    Preemptible.Server.run cfg_tc ~arrival:(arrival 600_000.0) ~source:a1_source
      ~duration_ns:(Units.ms 40)
  in
  check_bool "offload tail <= timer-core tail (+5% slack)" true
    (r.Preemptible.Server.all.Stat.Summary.p99
    <= 1.05 *. tc.Preemptible.Server.all.Stat.Summary.p99)

let test_utimer_power_model () =
  let sim = Engine.Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let parked = Utimer.create sim ~uintr:fabric () in
  Alcotest.(check (float 1e-9)) "UMWAIT-parked ~1.2W" 1.2 (Utimer.power_watts parked);
  let hot =
    Utimer.create sim ~uintr:fabric
      ~config:{ Utimer.default_config with Utimer.poll_ns = 50 }
      ()
  in
  check_bool "hot polling costs more" true (Utimer.power_watts hot > 2.0);
  Alcotest.(check (float 1e-9)) "energy integrates power" 1.2
    (Utimer.energy_joules parked ~duration_ns:(Units.sec 1))

(* ------------------------------------------------------------------ *)
(* Request flood (tail attack through the front door)                  *)
(* ------------------------------------------------------------------ *)

let flood_guard =
  {
    Guard.disabled with
    Guard.timeout_ns = Some (Units.us 300);
    drop_expired = true;
    shed =
      Some
        { Guard.max_queue = 32; codel_target_ns = Units.us 50; codel_interval_ns = Units.us 250 };
    be_bucket = Some { Guard.rate_per_sec = 10_000.0; burst = 8.0 };
    brownout = Some Guard.default_brownout;
  }

let run_flood ?guard ~flood_rate () =
  Baselines.Attack.request_flood ?guard ~victim_rate:200_000.0 ~flood_rate
    ~slo_ns:(Units.us 300) ~duration_ns:(Units.ms 30) ()

let test_flood_conservation () =
  (* Drained run: every offered request either completed, was shed at
     admission, or was dropped after the client abandoned it. *)
  List.iter
    (fun (guard, flood_rate) ->
      let r = run_flood ?guard ~flood_rate () in
      check_int "offered = completed + shed + expired"
        r.Baselines.Attack.offered
        (r.Baselines.Attack.completed + r.Baselines.Attack.shed + r.Baselines.Attack.expired))
    [ (None, 0.0); (None, 45_000.0); (Some flood_guard, 0.0); (Some flood_guard, 45_000.0) ]

let test_flood_guard_protects_lc () =
  let naive = run_flood ~flood_rate:100_000.0 () in
  let guarded = run_flood ~guard:flood_guard ~flood_rate:100_000.0 () in
  let control = run_flood ~flood_rate:0.0 () in
  (* Preemption already shields LC requests shorter than the quantum,
     so the flood's damage lands on the LC tail: requests longer than
     the quantum are demoted behind the BE glut and their p99 explodes
     past the SLO.  The guard's BE bucket sheds the flood and restores
     both the tail and the lost goodput. *)
  let slo_us = 300.0 in
  check_bool "flood explodes the naive LC tail" true
    (naive.Baselines.Attack.lc_p99_us > 10.0 *. slo_us);
  check_bool "flood costs the naive victim goodput" true
    (naive.Baselines.Attack.lc_goodput_rps < 0.98 *. control.Baselines.Attack.lc_goodput_rps);
  check_bool "guard restores the LC tail" true
    (guarded.Baselines.Attack.lc_p99_us < slo_us);
  check_bool "guard restores goodput" true
    (guarded.Baselines.Attack.lc_goodput_rps > naive.Baselines.Attack.lc_goodput_rps);
  check_bool "guard actually shed" true (guarded.Baselines.Attack.shed > 0);
  check_bool "shed work never executes" true
    (guarded.Baselines.Attack.completed + guarded.Baselines.Attack.expired
    <= guarded.Baselines.Attack.offered - guarded.Baselines.Attack.shed);
  match guarded.Baselines.Attack.guard_report with
  | None -> Alcotest.fail "guarded run carries a ledger"
  | Some g ->
    check_int "ledger agrees with result" g.Guard.shed_total guarded.Baselines.Attack.shed

let test_flood_validation () =
  Alcotest.check_raises "negative flood"
    (Invalid_argument "Attack.request_flood: negative flood rate") (fun () ->
      ignore
        (Baselines.Attack.request_flood ~victim_rate:1.0 ~flood_rate:(-1.0) ~slo_ns:1
           ~duration_ns:1 ()))

(* ------------------------------------------------------------------ *)
(* Tenancy                                                             *)
(* ------------------------------------------------------------------ *)

let test_tenancy_scales () =
  let one =
    Baselines.Tenancy.libpreemptible ~tenants:1 ~per_tenant_rate:150_000.0
      ~duration_ns:(Units.ms 30) ()
  in
  let many =
    Baselines.Tenancy.libpreemptible ~tenants:32 ~per_tenant_rate:150_000.0
      ~duration_ns:(Units.ms 30) ()
  in
  check_bool "32 tenants served" true (many.Baselines.Tenancy.completed > 30 * one.Baselines.Tenancy.completed / 2);
  (* shared timer core: degradation bounded (well under 4x) *)
  check_bool "tail degrades mildly" true
    (many.Baselines.Tenancy.mean_p99_us < 4.0 *. one.Baselines.Tenancy.mean_p99_us);
  check_bool "far beyond the APIC limit is possible" true
    (Baselines.Tenancy.shinjuku_tenant_limit Hw.Params.default < 64);
  let wheel =
    Baselines.Tenancy.libpreemptible ~tenants:32 ~per_tenant_rate:150_000.0 ~wheel:true
      ~duration_ns:(Units.ms 30) ()
  in
  check_bool "wheel variant also works" true (wheel.Baselines.Tenancy.completed > 0)

let test_tenancy_conservation () =
  (* Every arrival is accounted for: completed, or still pending when
     the run stopped — nothing lost, nothing invented. *)
  List.iter
    (fun tenants ->
      let r =
        Baselines.Tenancy.libpreemptible ~tenants ~per_tenant_rate:150_000.0
          ~duration_ns:(Units.ms 20) ()
      in
      check_int
        (Printf.sprintf "offered = completed + pending (%d tenants)" tenants)
        r.Baselines.Tenancy.offered
        (r.Baselines.Tenancy.completed + r.Baselines.Tenancy.pending);
      check_bool "tenants actually served" true (r.Baselines.Tenancy.completed > 0))
    [ 1; 8 ]

let test_tenancy_validation () =
  Alcotest.check_raises "zero tenants"
    (Invalid_argument "Tenancy.libpreemptible: need at least one tenant") (fun () ->
      ignore
        (Baselines.Tenancy.libpreemptible ~tenants:0 ~per_tenant_rate:1.0 ~duration_ns:1_000 ()))

let suites =
  [
    ( "baselines.shinjuku",
      [
        Alcotest.test_case "conservation" `Slow test_shinjuku_conservation;
        Alcotest.test_case "preempts under load" `Slow test_shinjuku_preempts_under_load;
        Alcotest.test_case "beats no-preemption" `Slow test_shinjuku_beats_no_preemption;
        Alcotest.test_case "LP beats shinjuku" `Slow test_shinjuku_worse_than_libpreemptible;
        Alcotest.test_case "apic limit" `Quick test_shinjuku_apic_limit;
        Alcotest.test_case "context pool is lazy" `Quick test_shinjuku_pool_lazy;
      ] );
    ( "baselines.libinger",
      [
        Alcotest.test_case "effective quantum" `Quick test_libinger_effective_quantum;
        Alcotest.test_case "runs and preempts" `Slow test_libinger_runs_and_preempts;
      ] );
    ( "baselines.nopreempt",
      [ Alcotest.test_case "HoL blocking" `Slow test_nopreempt_hol ] );
    ( "baselines.attack",
      [
        Alcotest.test_case "libpreemptible immune" `Slow test_attack_libpreemptible_immune;
        Alcotest.test_case "native uintr degrades" `Slow test_attack_native_uintr_degrades;
        Alcotest.test_case "apic worst" `Slow test_attack_apic_worst;
        Alcotest.test_case "validation" `Quick test_attack_validation;
        Alcotest.test_case "flood conservation" `Slow test_flood_conservation;
        Alcotest.test_case "flood: guard protects LC" `Slow test_flood_guard_protects_lc;
        Alcotest.test_case "flood validation" `Quick test_flood_validation;
      ] );
    ( "baselines.hw_offload",
      [
        Alcotest.test_case "mechanism works" `Slow test_hw_offload_mechanism;
        Alcotest.test_case "power model" `Quick test_utimer_power_model;
      ] );
    ( "baselines.tenancy",
      [
        Alcotest.test_case "scales past APIC limit" `Slow test_tenancy_scales;
        Alcotest.test_case "conservation" `Slow test_tenancy_conservation;
        Alcotest.test_case "validation" `Quick test_tenancy_validation;
      ] );
    ( "baselines.timer_strategies",
      [
        Alcotest.test_case "fig11 utimer flat" `Slow test_fig11_utimer_flat_and_fast;
        Alcotest.test_case "fig11 creation-time superlinear" `Slow
          test_fig11_creation_time_superlinear;
        Alcotest.test_case "fig11 staggered wins" `Slow test_fig11_staggered_beats_creation_time;
        Alcotest.test_case "fig11 ordering" `Slow test_fig11_ordering_at_32;
        Alcotest.test_case "fig12 kernel floor" `Slow test_fig12_kernel_timer_floor;
        Alcotest.test_case "fig12 utimer precise" `Slow test_fig12_utimer_precise;
        Alcotest.test_case "validation" `Quick test_strategy_validation;
      ] );
  ]
