(* Fleet layer: N server instances co-simulated on one engine behind a
   pluggable dispatcher.  See cluster.mli for the model. *)

module Server = Preemptible.Server

type lb = Random | Round_robin | Least_loaded | Power_of_two

let lb_name = function
  | Random -> "random"
  | Round_robin -> "rr"
  | Least_loaded -> "jsq"
  | Power_of_two -> "p2c"

let lb_of_string = function
  | "random" -> Ok Random
  | "rr" | "round-robin" -> Ok Round_robin
  | "jsq" | "least-loaded" -> Ok Least_loaded
  | "p2c" | "power-of-two" -> Ok Power_of_two
  | s ->
    Error
      (Printf.sprintf "unknown load balancer %S (random|rr|jsq|p2c)" s)

let all_lbs = [ Random; Round_robin; Least_loaded; Power_of_two ]

type steal = { interval_ns : int; threshold : int; batch : int }

let default_steal = { interval_ns = 20_000; threshold = 8; batch = 4 }

type config = {
  members : Server.config array;
  lb : lb;
  steal : steal option;
  seed : int64;
  max_events : int;
  tick_ns : int option;
}

type tick = {
  ck_at_ns : int;
  ck_inflight : int array;
  ck_dispatched : int array;
  ck_completed : int;
  ck_p50_ns : float;
  ck_p99_ns : float;
}

type probes = {
  on_tick : tick -> unit;
  on_dispatch : server:int -> now:int -> unit;
}

let no_probes = { on_tick = ignore; on_dispatch = (fun ~server:_ ~now:_ -> ()) }

type fleet = {
  servers : int;
  duration_ns : int;
  measured_ns : int;
  offered : int;
  completed : int;
  cancelled : int;
  dropped : int;
  shed : int;
  goodput : int;
  goodput_rps : float;
  throughput_rps : float;
  offered_rps : float;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
  dispatched : int array;
  imbalance : float;
  stolen : int;
  sim_events : int;
}

type result = {
  fleet : fleet;
  per_server : Server.result array;
  sketch : Obs.Sketch.t;
}

let validate cfg =
  let n = Array.length cfg.members in
  if n = 0 then invalid_arg "Cluster.run: need at least one member";
  (match cfg.steal with
  | Some s ->
    if s.interval_ns <= 0 then invalid_arg "Cluster.run: steal interval must be positive";
    if s.threshold < 1 then invalid_arg "Cluster.run: steal threshold must be >= 1";
    if s.batch < 1 then invalid_arg "Cluster.run: steal batch must be >= 1";
    Array.iter
      (fun (m : Server.config) ->
        match m.Server.guard with
        | Some g when g.Guard.retry <> None ->
          invalid_arg
            "Cluster.run: work stealing cannot be combined with retry guards (a stolen \
             request's patience clock cannot follow it across servers)"
        | Some _ | None -> ())
      cfg.members
  | None -> ())

(* Merge the per-server sketches into [dst] (cleared first).  Exact by
   the bucket-wise merge property, so fleet quantiles are those of the
   concatenated completion stream. *)
let merge_sketches ~dst per_server =
  Obs.Sketch.clear dst;
  Array.iter (fun src -> Obs.Sketch.merge_into ~dst ~src) per_server

let run ?(probes = no_probes) ?(warmup_ns = 0) cfg ~arrival ~source ~duration_ns =
  validate cfg;
  let n = Array.length cfg.members in
  let sim = Engine.Sim.create ~seed:cfg.seed () in
  (* Fixed fork order: arrival, service, balancer — then the members in
     index order fork their own streams inside [Server.create]. *)
  let arrival_rng = Engine.Sim.fork_rng sim in
  let service_rng = Engine.Sim.fork_rng sim in
  let lb_rng = Engine.Sim.fork_rng sim in
  let sketches = Array.init n (fun _ -> Obs.Sketch.create ()) in
  let completed = ref 0 in
  let instances =
    Array.init n (fun i ->
        let sk = sketches.(i) in
        let member_probes =
          {
            Server.no_probes with
            Server.on_complete =
              (fun ~now:_ ~latency_ns ~cls:_ ->
                incr completed;
                Obs.Sketch.add sk (float_of_int latency_ns));
          }
        in
        Server.create ~probes:member_probes ~warmup_ns cfg.members.(i) ~sim ~duration_ns)
  in
  let dispatched = Array.make n 0 in
  let stolen = ref 0 in
  (* -------------------------- dispatch -------------------------- *)
  let rr_next = ref 0 in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to n - 1 do
      if Server.inflight instances.(i) < Server.inflight instances.(!best) then best := i
    done;
    !best
  in
  let pick () =
    if n = 1 then 0
    else
      match cfg.lb with
      | Random -> Engine.Rng.int lb_rng n
      | Round_robin ->
        let i = !rr_next in
        rr_next := (i + 1) mod n;
        i
      | Least_loaded -> least_loaded ()
      | Power_of_two ->
        let a = Engine.Rng.int lb_rng n in
        let b = Engine.Rng.int lb_rng n in
        if Server.inflight instances.(b) < Server.inflight instances.(a) then b else a
  in
  let rec fire () =
    let t = Engine.Sim.now sim in
    let service_ns, cls = Workload.Source.draw source service_rng ~now:t in
    let i = pick () in
    dispatched.(i) <- dispatched.(i) + 1;
    probes.on_dispatch ~server:i ~now:t;
    Server.inject instances.(i) ~service_ns ~cls;
    schedule ()
  and schedule () =
    let t = Engine.Sim.now sim in
    let gap = Workload.Arrival.next_gap arrival arrival_rng ~now:t in
    let at = t + gap in
    if at >= duration_ns then
      ignore
        (Engine.Sim.at sim duration_ns (fun () -> Array.iter Server.end_arrivals instances))
    else ignore (Engine.Sim.at sim at fire)
  in
  schedule ();
  Array.iter Server.start instances;
  (* ----------------------- work stealing ------------------------ *)
  let fleet_live () =
    Engine.Sim.now sim < duration_ns
    || Array.exists (fun inst -> Server.inflight inst > 0) instances
  in
  (match cfg.steal with
  | None -> ()
  | Some s ->
    let rec tick () =
      if fleet_live () then begin
        let deepest = ref 0 and shallowest = ref 0 in
        for i = 1 to n - 1 do
          let q = Server.queue_depth instances.(i) in
          if q > Server.queue_depth instances.(!deepest) then deepest := i;
          if q < Server.queue_depth instances.(!shallowest) then shallowest := i
        done;
        let gap_q =
          Server.queue_depth instances.(!deepest)
          - Server.queue_depth instances.(!shallowest)
        in
        if !deepest <> !shallowest && gap_q >= s.threshold then
          stolen :=
            !stolen
            + Server.steal_from ~victim:instances.(!deepest)
                ~thief:instances.(!shallowest) ~max:s.batch;
        ignore (Engine.Sim.after sim s.interval_ns tick)
      end
    in
    ignore (Engine.Sim.after sim s.interval_ns tick));
  (* -------------------------- telemetry ------------------------- *)
  let tick_sketch = Obs.Sketch.create () in
  (match cfg.tick_ns with
  | None -> ()
  | Some tick_ns ->
    if tick_ns <= 0 then invalid_arg "Cluster.run: tick_ns must be positive";
    let rec tick () =
      if fleet_live () then begin
        merge_sketches ~dst:tick_sketch sketches;
        let q p =
          match Obs.Sketch.quantile_opt tick_sketch p with Some v -> v | None -> nan
        in
        probes.on_tick
          {
            ck_at_ns = Engine.Sim.now sim;
            ck_inflight = Array.map Server.inflight instances;
            ck_dispatched = Array.copy dispatched;
            ck_completed = !completed;
            ck_p50_ns = q 0.5;
            ck_p99_ns = q 0.99;
          };
        ignore (Engine.Sim.after sim tick_ns tick)
      end
    in
    ignore (Engine.Sim.after sim tick_ns tick));
  (* ---------------------------- run ----------------------------- *)
  Engine.Sim.run ~max_events:cfg.max_events sim;
  if Array.exists (fun inst -> Server.inflight inst > 0) instances then
    failwith
      (Printf.sprintf
         "Cluster.run: event cap (%d) hit with requests outstanding — raise max_events or \
          lower the load"
         cfg.max_events);
  Array.iteri
    (fun i inst ->
      if Server.completed_so_far inst = 0 then
        failwith
          (Printf.sprintf
             "Cluster.run: server %d saw no measured completions (fleet too large for the \
              offered load, or warmup too long)"
             i))
    instances;
  let per_server = Array.map Server.finish instances in
  let sketch = Obs.Sketch.create () in
  merge_sketches ~dst:sketch sketches;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 per_server in
  let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 per_server in
  let q p = match Obs.Sketch.quantile_opt sketch p with Some v -> v | None -> nan in
  let count = Obs.Sketch.count sketch in
  let mean_ns = if count = 0 then nan else Obs.Sketch.sum sketch /. float_of_int count in
  let total_dispatched = Array.fold_left ( + ) 0 dispatched in
  let imbalance =
    if total_dispatched = 0 then 1.0
    else
      let mean = float_of_int total_dispatched /. float_of_int n in
      float_of_int (Array.fold_left max 0 dispatched) /. mean
  in
  let fleet =
    {
      servers = n;
      duration_ns;
      measured_ns = duration_ns - warmup_ns;
      offered = sum (fun r -> r.Server.offered);
      completed = sum (fun r -> r.Server.completed);
      cancelled = sum (fun r -> r.Server.cancelled);
      dropped = sum (fun r -> r.Server.dropped);
      shed = sum (fun r -> r.Server.shed);
      goodput = sum (fun r -> r.Server.goodput);
      goodput_rps = sumf (fun r -> r.Server.goodput_rps);
      throughput_rps = sumf (fun r -> r.Server.throughput_rps);
      offered_rps = sumf (fun r -> r.Server.offered_rps);
      mean_us = mean_ns /. 1e3;
      p50_us = q 0.5 /. 1e3;
      p90_us = q 0.9 /. 1e3;
      p99_us = q 0.99 /. 1e3;
      max_us = Obs.Sketch.max_value sketch /. 1e3;
      dispatched;
      imbalance;
      stolen = !stolen;
      sim_events = Engine.Sim.events_fired sim;
    }
  in
  { fleet; per_server; sketch }

let pp_fleet fmt f =
  Format.fprintf fmt
    "@[<v>fleet: %d servers, offered=%d (%.0f rps) completed=%d (%.0f rps) goodput=%.0f \
     rps@ shed=%d dropped=%d cancelled=%d stolen=%d imbalance=%.2f@ latency: mean=%.1fus \
     p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus@]"
    f.servers f.offered f.offered_rps f.completed f.throughput_rps f.goodput_rps f.shed
    f.dropped f.cancelled f.stolen f.imbalance f.mean_us f.p50_us f.p90_us f.p99_us
    f.max_us
