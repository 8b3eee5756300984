(* Cluster suite (bench --cluster).

   The paper evaluates one server; this element asks the datacenter
   question on top of it: how much does the dispatch policy matter, and
   when does spending the complexity budget *inside* the server
   (adaptive quanta) beat spending it *between* servers (better load
   balancing)?  Three sections, all deterministic in seed and --jobs:

   - lb:        fleet size x policy under production-shaped traffic
                (diurnal arrivals, Zipf-skewed tenant mix) — the basic
                "how much tail does each policy leave on the table"
                figure, plus the dispatch-imbalance it induces.
   - crossover: JSQ over fixed-quantum servers vs p2c over
                adaptive-quantum servers, swept over fleet size and
                load on the heavy-tailed bimodal.  JSQ's
                full-information dispatch scales with fleet size and
                takes the mean at the largest fleet; the adaptive
                quantum dominates the p99 at every size and load —
                per-server preemption beats cluster-level rebalancing
                on the tail, exactly where the paper's single-server
                story predicts.
   - goodput:   guarded fleets pushed past capacity (1.0x / 1.4x).
                Under overload dispatch mistakes turn into sheds and
                blown client patience, so goodput separates the
                policies; the CI gate pins p2c >= random at 1.4x.
                A work-stealing pair on a lopsided heterogeneous fleet
                closes the section. *)

let ms = Engine.Units.ms

let workers = 2

let override spec text =
  match Scenario.override spec text with
  | Ok s -> s
  | Error e -> invalid_arg ("bench_cluster: " ^ Scenario.error_to_string e)

let point ~section ~labels ~metrics =
  Bench_report.point ~fig:"cluster" ~labels:(("mode", section) :: labels) ~metrics

let lat_metrics (f : Cluster.fleet) =
  [
    ("mean_us", f.Cluster.mean_us);
    ("p50_us", f.Cluster.p50_us);
    ("p99_us", f.Cluster.p99_us);
    ("imbalance", f.Cluster.imbalance);
  ]

(* ------------------------------------------------------------------ *)
(* Section 1: fleet size x policy, production-shaped traffic           *)
(* ------------------------------------------------------------------ *)

(* A Zipf-skewed tenant mix (hot exponential tenant, cold heavy-tailed
   one) under production-shaped diurnal arrivals; the capacity-relative
   0.75x rate resolves against the fleet's total worker count. *)
let lb_base =
  Bench_util.spec_of_string
    "workers=2; quantum=5us; seed=17; src=tenants:0.9(b,a2); \
     arrival=diurnal:0.75x:0.25:8ms; dur=24ms; warmup=6ms"

let lb_section ~jobs =
  let sizes = [ 2; 4; 8 ] in
  let specs =
    List.concat_map (fun n -> List.map (fun lb -> (n, lb)) Cluster.all_lbs) sizes
  in
  let results =
    Bench_util.sweep ~label:"cluster.lb" ~jobs
      (fun (n, lb) ->
        let r =
          Scenario.run_fleet
            (override lb_base
               (Printf.sprintf "fleet={n=%d;lb=%s}" n (Cluster.lb_name lb)))
        in
        r.Cluster.fleet)
      specs
  in
  Bench_util.header
    (Printf.sprintf
       "Cluster: fleet size x balancer, diurnal arrivals (0.75x±25%%), Zipf(0.9) tenant \
        mix, %d workers/server"
       workers);
  Format.printf "  %7s %8s %10s %10s %10s %11s@." "servers" "lb" "mean_us" "p99_us"
    "imbalance" "goodput/s";
  let rows = ref [] in
  List.iter2
    (fun (n, lb) (f : Cluster.fleet) ->
      Format.printf "  %7d %8s %10.1f %10.1f %10.3f %11.0f@." n (Cluster.lb_name lb)
        f.Cluster.mean_us f.Cluster.p99_us f.Cluster.imbalance f.Cluster.goodput_rps;
      rows :=
        Printf.sprintf "%d,%s,%.2f,%.2f,%.2f,%.4f,%.0f" n (Cluster.lb_name lb)
          f.Cluster.mean_us f.Cluster.p50_us f.Cluster.p99_us f.Cluster.imbalance
          f.Cluster.goodput_rps
        :: !rows;
      point ~section:"lb"
        ~labels:[ ("servers", string_of_int n); ("lb", Cluster.lb_name lb) ]
        ~metrics:(("goodput_rps", f.Cluster.goodput_rps) :: lat_metrics f))
    specs results;
  Bench_util.csv ~name:"cluster_lb"
    ~header:"servers,lb,mean_us,p50_us,p99_us,imbalance,goodput_rps"
    ~rows:(List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Section 2: dispatch quality vs quantum adaptivity                   *)
(* ------------------------------------------------------------------ *)

(* JSQ's full-information dispatch over fixed-quantum members vs p2c
   over adaptive members.  Member adaptive controllers get a 1/n share
   of the fleet-wide capacity reference (the scenario lowering's
   default). *)
let crossover_base =
  Bench_util.spec_of_string
    "workers=2; seed=17; src=a1; dur=30ms; warmup=8ms; window=1ms"

let crossover_spec ~n ~load sys =
  override crossover_base
    (Printf.sprintf "arrival=poisson:%gx; %s; fleet={n=%d;lb=%s}" load
       (match sys with
       | "jsq+fixed" -> "quantum=20us"
       | _ -> "quantum=adaptive:20us; ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}")
       n
       (match sys with "jsq+fixed" -> "jsq" | _ -> "p2c"))

let crossover_section ~jobs =
  let sizes = [ 2; 4; 8 ] and loads = [ 0.5; 0.75; 0.9 ] in
  let systems = [ "jsq+fixed"; "p2c+adaptive" ] in
  let specs =
    List.concat_map
      (fun n -> List.concat_map (fun load -> List.map (fun s -> (n, load, s)) systems) loads)
      sizes
  in
  let results =
    Bench_util.sweep ~label:"cluster.crossover" ~jobs
      (fun (n, load, sys) ->
        let spec = crossover_spec ~n ~load sys in
        (* The hand-built version of this bench shared one controller
           across all members (it copied one member config, closures
           included, into every slot); the scenario lowering gives
           each member its own.  Keep the shared-controller dynamics
           so the figure is unchanged. *)
        let cfg = Scenario.cluster_config spec in
        let shared = cfg.Cluster.members.(0).Preemptible.Server.policy in
        let cfg =
          {
            cfg with
            Cluster.members =
              Array.map
                (fun m -> { m with Preemptible.Server.policy = shared })
                cfg.Cluster.members;
          }
        in
        let r =
          Cluster.run ~warmup_ns:spec.Scenario.warmup_ns cfg
            ~arrival:(Scenario.arrival_process spec)
            ~source:(Scenario.source_sampler spec)
            ~duration_ns:spec.Scenario.duration_ns
        in
        r.Cluster.fleet)
      specs
  in
  Bench_util.header
    (Printf.sprintf
       "Cluster: JSQ over fixed q=20us vs p2c over adaptive quanta (workload A1, %d \
        workers/server)"
       workers);
  Format.printf "  %7s %6s %14s %10s %10s@." "servers" "load" "system" "mean_us" "p99_us";
  let rows = ref [] in
  List.iter2
    (fun (n, load, sys) (f : Cluster.fleet) ->
      Format.printf "  %7d %5.2fx %14s %10.1f %10.1f@." n load sys f.Cluster.mean_us
        f.Cluster.p99_us;
      rows :=
        Printf.sprintf "%d,%g,%s,%.2f,%.2f" n load sys f.Cluster.mean_us f.Cluster.p99_us
        :: !rows;
      point ~section:"crossover"
        ~labels:
          [
            ("servers", string_of_int n);
            ("load", Printf.sprintf "%.2fx" load);
            ("system", sys);
          ]
        ~metrics:[ ("mean_us", f.Cluster.mean_us); ("p99_us", f.Cluster.p99_us) ])
    specs results;
  Bench_util.csv ~name:"cluster_crossover" ~header:"servers,load,system,mean_us,p99_us"
    ~rows:(List.rev !rows);
  (* narrate the headline: per-cell winners.  JSQ's full-information
     advantage grows with fleet size and shows on the mean; the
     adaptive quantum owns the tail wherever the heavy-tail rule can
     bite — the crossover the figure exists to show. *)
  let cell n load sys =
    let i = ref None in
    List.iteri
      (fun k (n', load', sys') -> if n' = n && load' = load && sys' = sys then i := Some k)
      specs;
    match !i with Some k -> List.nth results k | None -> invalid_arg "cell"
  in
  List.iter
    (fun n ->
      let winners metric =
        List.map
          (fun load ->
            let j = metric (cell n load "jsq+fixed")
            and p = metric (cell n load "p2c+adaptive") in
            Printf.sprintf "%.2fx:%s" load (if p < j then "p2c+adaptive" else "jsq+fixed"))
          loads
      in
      Format.printf "  %d servers: mean winner %s | p99 winner %s@." n
        (String.concat " " (winners (fun f -> f.Cluster.mean_us)))
        (String.concat " " (winners (fun f -> f.Cluster.p99_us))))
    sizes

(* ------------------------------------------------------------------ *)
(* Section 3: goodput under overload + work stealing                   *)
(* ------------------------------------------------------------------ *)

let patience_us = 200

(* Guarded members pushed past capacity on a 4-server fleet. *)
let goodput_base =
  Bench_util.spec_of_string
    "workers=2; quantum=5us; seed=17; src=b; dur=30ms; warmup=8ms; \
     guard={timeout=200us;expire;shed={q=16;target=40us;interval=200us}}"

(* Bursty overload, not sustained Poisson: under a flat 1.4x Poisson
   every server saturates and dispatch quality stops mattering (random
   even edges ahead by letting a lucky few through fast).  With spikes
   to 2x the mean, informed dispatch keeps the troughs' spare capacity
   fed while random strands it behind transiently deep queues.  The
   spike/base split is derived from the fleet capacity, so it's
   computed here and spliced into the spec as absolute rates. *)
let bursty_overload spec ~load =
  let mean_rate = load *. Scenario.capacity_rps spec in
  let spike = 2.0 *. mean_rate in
  let base = (mean_rate -. (0.3 *. spike)) /. 0.7 in
  {
    spec with
    Scenario.arrival =
      Scenario.Bursty
        {
          base = Scenario.Abs base;
          spike = Scenario.Abs spike;
          period_ns = ms 2;
          spike_fraction = 0.3;
        };
  }

let goodput_section ~jobs =
  let n = 4 in
  let loads = [ 1.0; 1.4 ] in
  let specs =
    List.concat_map (fun lb -> List.map (fun load -> (lb, load)) loads) Cluster.all_lbs
  in
  let results =
    Bench_util.sweep ~label:"cluster.goodput" ~jobs
      (fun (lb, load) ->
        let spec =
          override goodput_base
            (Printf.sprintf "fleet={n=%d;lb=%s}" n (Cluster.lb_name lb))
        in
        (Scenario.run_fleet (bursty_overload spec ~load)).Cluster.fleet)
      specs
  in
  Bench_util.header
    (Printf.sprintf
       "Cluster: guarded goodput under bursty overload (%d servers, 2x spikes, patience \
        %dus, bounded queues)"
       n patience_us);
  Format.printf "  %8s %6s %11s %11s %8s %10s@." "lb" "load" "offered/s" "goodput/s"
    "shed%" "p99_us";
  let rows = ref [] in
  List.iter2
    (fun (lb, load) (f : Cluster.fleet) ->
      let shed_frac =
        if f.Cluster.offered = 0 then 0.0
        else float_of_int f.Cluster.shed /. float_of_int f.Cluster.offered
      in
      Format.printf "  %8s %5.1fx %11.0f %11.0f %7.1f%% %10.1f@." (Cluster.lb_name lb)
        load f.Cluster.offered_rps f.Cluster.goodput_rps (100.0 *. shed_frac)
        f.Cluster.p99_us;
      rows :=
        Printf.sprintf "%s,%g,%.0f,%.0f,%.4f,%.2f" (Cluster.lb_name lb) load
          f.Cluster.offered_rps f.Cluster.goodput_rps shed_frac f.Cluster.p99_us
        :: !rows;
      point ~section:"goodput"
        ~labels:
          [ ("lb", Cluster.lb_name lb); ("load", Printf.sprintf "%.1fx" load) ]
        ~metrics:
          [
            ("offered_rps", f.Cluster.offered_rps);
            ("goodput_rps", f.Cluster.goodput_rps);
            ("shed_frac", shed_frac);
            ("p99_us", f.Cluster.p99_us);
          ])
    specs results;
  Bench_util.csv ~name:"cluster_goodput"
    ~header:"lb,load,offered_rps,goodput_rps,shed_frac,p99_us"
    ~rows:(List.rev !rows)

let steal_section () =
  (* round-robin over a lopsided heterogeneous fleet (1/4/4 workers):
     the balancer overloads the small member, stealing mops it up *)
  let base =
    Bench_util.spec_of_string
      "workers=2; quantum=5us; seed=17; src=b; arrival=poisson:0.75x; \
       dur=30ms; warmup=8ms"
  in
  let run steal =
    (Scenario.run_fleet
       (override base
          (Printf.sprintf "fleet={n=3;lb=rr;workers=1/4/4%s}"
             (if steal then ";steal" else ""))))
      .Cluster.fleet
  in
  let off = run false and on_ = run true in
  Bench_util.header
    "Cluster: work stealing on a lopsided heterogeneous fleet (1/4/4 workers, round-robin)";
  let show name (f : Cluster.fleet) =
    Format.printf "  steal %-4s mean=%8.1fus p99=%8.1fus stolen=%d@." name
      f.Cluster.mean_us f.Cluster.p99_us f.Cluster.stolen;
    point ~section:"steal"
      ~labels:[ ("steal", name) ]
      ~metrics:
        [
          ("mean_us", f.Cluster.mean_us);
          ("p99_us", f.Cluster.p99_us);
          ("stolen", float_of_int f.Cluster.stolen);
        ]
  in
  show "off" off;
  show "on" on_

let run ~jobs () =
  lb_section ~jobs;
  crossover_section ~jobs;
  goodput_section ~jobs;
  steal_section ();
  Format.printf
    "@.(expected: jsq/p2c hold p99 well under random at every fleet size; p2c over\n\
    \ adaptive-quantum servers beats jsq over fixed-quantum ones on p99 at every size,\n\
    \ while jsq+fixed takes the mean back at the largest fleet — dispatch information\n\
    \ scales with n, quantum adaptivity owns the tail; under overload p2c goodput stays\n\
    \ at or above random; stealing moves work off the overloaded small server and cuts\n\
    \ the fleet tail)@."
