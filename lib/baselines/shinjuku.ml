type config = {
  n_workers : int;
  quantum_ns : int;
  loop_base_ns : int;
  per_worker_check_ns : int;
  assign_cost_ns : int;
  worker_preempt_cost_ns : int;
  net_cost_ns : int;
  costs : Ksim.Costs.t;
  hw : Hw.Params.t;
  seed : int64;
  max_events : int;
}

let default_config ~n_workers ~quantum_ns =
  {
    n_workers;
    quantum_ns;
    loop_base_ns = 110;
    per_worker_check_ns = 60;
    assign_cost_ns = 150;
    worker_preempt_cost_ns = 2_300;
    net_cost_ns = 250;
    costs = Ksim.Costs.default;
    hw = Hw.Params.default;
    seed = 42L;
    max_events = 400_000_000;
  }

type item = New of Workload.Request.t | Requeued of Preemptible.Fn.t

type worker = {
  wid : int;
  core : Hw.Core.t;
  ipi : Hw.Ipi.target;
  mutable current : Preemptible.Fn.t option;
  mutable deadline : int;
  mutable ipi_pending : bool;
  mutable starting : bool; (* assignment in flight *)
}

type st = {
  sim : Engine.Sim.t;
  cfg : config;
  arrival_rng : Engine.Rng.t;
  service_rng : Engine.Rng.t;
  ipi_fabric : Hw.Ipi.t;
  mutable workers : worker array;
  central_q : item Preemptible.Rqueue.t;
  pool : Preemptible.Fn.Pool.t;
  sum_all : Stat.Summary.t;
  sum_lc : Stat.Summary.t;
  sum_be : Stat.Summary.t;
  window : Preemptible.Stats_window.t;
  probes : Preemptible.Server.probes;
  warmup_ns : int;
  duration_ns : int;
  mutable outstanding : int;
  mutable arrivals_done : bool;
  mutable loop_running : bool;
  mutable measured_offered : int;
  mutable measured_completed : int;
  mutable completed_in_window : int;
  mutable preemptions : int;
  mutable spurious : int;
  mutable ipis_sent : int;
  mutable next_id : int;
  mutable window_ev : Engine.Sim.event option;
}

let now st = Engine.Sim.now st.sim

let measured st (req : Workload.Request.t) = req.Workload.Request.arrival_ns >= st.warmup_ns

let record_completion st (fn : Preemptible.Fn.t) =
  let t = now st in
  let req = Preemptible.Fn.request fn in
  let latency = t - req.Workload.Request.arrival_ns in
  Preemptible.Stats_window.note_completion st.window ~now:t ~latency_ns:latency
    ~service_ns:req.Workload.Request.service_ns;
  if measured st req then begin
    st.measured_completed <- st.measured_completed + 1;
    if t <= st.duration_ns then st.completed_in_window <- st.completed_in_window + 1;
    Stat.Summary.record st.sum_all (float_of_int latency);
    (match req.Workload.Request.cls with
    | Workload.Request.Latency_critical -> Stat.Summary.record st.sum_lc (float_of_int latency)
    | Workload.Request.Best_effort -> Stat.Summary.record st.sum_be (float_of_int latency));
    st.probes.Preemptible.Server.on_complete ~now:t ~latency_ns:latency
      ~cls:req.Workload.Request.cls
  end

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

let complete st w fn =
  record_completion st fn;
  Preemptible.Fn.note_progress fn ~executed_ns:(Preemptible.Fn.remaining_ns fn);
  Preemptible.Fn.complete fn;
  Preemptible.Fn.Pool.release st.pool fn;
  st.outstanding <- st.outstanding - 1;
  w.current <- None;
  w.deadline <- max_int

(* IPI handler: runs on the worker when the dispatcher's posted
   interrupt is delivered. *)
let on_ipi st w () =
  w.ipi_pending <- false;
  match w.current with
  | Some fn when Hw.Core.busy w.core && now st >= w.deadline ->
    st.preemptions <- st.preemptions + 1;
    let executed = Hw.Core.abort w.core in
    Preemptible.Fn.note_progress fn ~executed_ns:executed;
    Preemptible.Fn.preempt fn;
    w.current <- None;
    w.deadline <- max_int;
    (* Trampoline + context save happen on the worker before it is
       ready for the next assignment; the dispatcher's next scan will
       see it idle only after that. *)
    w.starting <- true;
    ignore
      (Engine.Sim.after st.sim st.cfg.worker_preempt_cost_ns (fun () ->
           w.starting <- false;
           Preemptible.Rqueue.push st.central_q ~now:(now st) (Requeued fn)))
  | Some _ when Hw.Core.busy w.core ->
    (* Stale IPI (quantum raced with completion/assignment). *)
    st.spurious <- st.spurious + 1;
    Hw.Core.stall w.core st.cfg.worker_preempt_cost_ns
  | Some _ | None -> st.spurious <- st.spurious + 1

let start_on_worker st w fn =
  let t = now st in
  let quantum = st.cfg.quantum_ns in
  w.deadline <- (if quantum = max_int then max_int else t + quantum);
  Hw.Core.begin_work w.core
    ~duration:(Preemptible.Fn.remaining_ns fn)
    ~on_done:(fun () -> complete st w fn)

(* ------------------------------------------------------------------ *)
(* Dispatcher loop                                                     *)
(* ------------------------------------------------------------------ *)

let rec dispatcher_iteration st =
  if st.outstanding = 0 then st.loop_running <- false
  else begin
    let t = now st in
    let cost = ref st.cfg.loop_base_ns in
    (* Scan workers for quantum overruns. *)
    Array.iter
      (fun w ->
        cost := !cost + st.cfg.per_worker_check_ns;
        match w.current with
        | Some _
          when Hw.Core.busy w.core && (not w.ipi_pending) && t >= w.deadline
               && w.deadline <> max_int ->
          w.ipi_pending <- true;
          st.ipis_sent <- st.ipis_sent + 1;
          cost := !cost + Hw.Ipi.send_cost_ns st.ipi_fabric;
          let send_at = t + !cost in
          let target = w.ipi in
          ignore (Engine.Sim.at st.sim send_at (fun () -> Hw.Ipi.send st.ipi_fabric target))
        | Some _ | None -> ())
      st.workers;
    (* Hand queued work to idle workers. *)
    Array.iter
      (fun w ->
        if
          w.current = None && (not w.starting)
          && not (Preemptible.Rqueue.is_empty st.central_q)
        then begin
          match Preemptible.Rqueue.pop st.central_q ~now:t with
          | None -> ()
          | Some item ->
            cost := !cost + st.cfg.assign_cost_ns;
            let start_at = t + !cost in
            w.starting <- true;
            (match item with
            | New req ->
              let fn = Preemptible.Fn.Pool.acquire st.pool req in
              w.current <- Some fn;
              ignore
                (Engine.Sim.at st.sim start_at (fun () ->
                     w.starting <- false;
                     Preemptible.Fn.launch fn ~now:(now st) ~quantum_ns:st.cfg.quantum_ns;
                     start_on_worker st w fn))
            | Requeued fn ->
              w.current <- Some fn;
              let resume_at = start_at + st.cfg.costs.Ksim.Costs.fcontext_swap_ns in
              ignore
                (Engine.Sim.at st.sim resume_at (fun () ->
                     w.starting <- false;
                     Preemptible.Fn.resume fn ~now:(now st) ~quantum_ns:st.cfg.quantum_ns;
                     start_on_worker st w fn)))
          end)
      st.workers;
    ignore (Engine.Sim.after st.sim !cost (fun () -> dispatcher_iteration st))
  end

let kick_dispatcher st =
  if not st.loop_running then begin
    st.loop_running <- true;
    dispatcher_iteration st
  end

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)
(* ------------------------------------------------------------------ *)

let arrivals st ~arrival ~source =
  let rec next_arrival () =
    let t = now st in
    let gap = Workload.Arrival.next_gap arrival st.arrival_rng ~now:t in
    let at = t + gap in
    if at >= st.duration_ns then
      ignore (Engine.Sim.at st.sim st.duration_ns (fun () -> st.arrivals_done <- true))
    else
      ignore
        (Engine.Sim.at st.sim at (fun () ->
             let service_ns, cls = Workload.Source.draw source st.service_rng ~now:at in
             let req = Workload.Request.make ~id:st.next_id ~arrival_ns:at ~service_ns ~cls in
             st.next_id <- st.next_id + 1;
             st.outstanding <- st.outstanding + 1;
             if measured st req then st.measured_offered <- st.measured_offered + 1;
             Preemptible.Stats_window.note_arrival st.window ~now:at;
             Preemptible.Stats_window.note_qlen st.window
               (Preemptible.Rqueue.length st.central_q);
             ignore
               (Engine.Sim.after st.sim st.cfg.net_cost_ns (fun () ->
                    Preemptible.Rqueue.push st.central_q ~now:(now st) (New req);
                    kick_dispatcher st));
             next_arrival ()))
  in
  next_arrival ()

let window_loop st window_ns =
  let rec tick () =
    st.window_ev <-
      Some
        (Engine.Sim.after st.sim window_ns (fun () ->
             if not (st.arrivals_done && st.outstanding = 0) then begin
               let t = now st in
               let snapshot = Preemptible.Stats_window.roll st.window ~now:t in
               st.probes.Preemptible.Server.on_window snapshot ~quantum_ns:st.cfg.quantum_ns;
               tick ()
             end))
  in
  tick ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(probes = Preemptible.Server.no_probes) ?(warmup_ns = 0) cfg ~arrival ~source
    ~duration_ns =
  if cfg.n_workers <= 0 then invalid_arg "Shinjuku.run: need at least one worker";
  if cfg.n_workers > cfg.hw.Hw.Params.apic_max_cores then
    invalid_arg "Shinjuku.run: worker count exceeds the APIC mapping limit";
  if duration_ns <= 0 then invalid_arg "Shinjuku.run: non-positive duration";
  if warmup_ns < 0 || warmup_ns >= duration_ns then
    invalid_arg "Shinjuku.run: warmup must lie within the run";
  let sim = Engine.Sim.create ~seed:cfg.seed () in
  let ipi_fabric = Hw.Ipi.create sim cfg.hw in
  let st =
    {
      sim;
      cfg;
      arrival_rng = Engine.Sim.fork_rng sim;
      service_rng = Engine.Sim.fork_rng sim;
      ipi_fabric;
      workers = [||];
      central_q = Preemptible.Rqueue.create ~name:"central";
      pool =
        Preemptible.Fn.Pool.create
          (Preemptible.Context.create_pool ~capacity:8192 ~stack_kb:16);
      sum_all = Stat.Summary.create ();
      sum_lc = Stat.Summary.create ();
      sum_be = Stat.Summary.create ();
      window = Preemptible.Stats_window.create ~window_ns:(Engine.Units.ms 100);
      probes;
      warmup_ns;
      duration_ns;
      outstanding = 0;
      arrivals_done = false;
      loop_running = false;
      measured_offered = 0;
      measured_completed = 0;
      completed_in_window = 0;
      preemptions = 0;
      spurious = 0;
      ipis_sent = 0;
      next_id = 0;
      window_ev = None;
    }
  in
  st.workers <-
    Array.init cfg.n_workers (fun wid ->
        let wref = ref None in
        let handler () = match !wref with Some w -> on_ipi st w () | None -> () in
        let w =
          {
            wid;
            core = Hw.Core.create sim ~id:wid;
            ipi = Hw.Ipi.register ipi_fabric ~handler;
            current = None;
            deadline = max_int;
            ipi_pending = false;
            starting = false;
          }
        in
        wref := Some w;
        w);
  arrivals st ~arrival ~source;
  window_loop st (Engine.Units.ms 100);
  Engine.Sim.run ~max_events:cfg.max_events sim;
  (match st.window_ev with Some ev -> Engine.Sim.cancel ev | None -> ());
  if st.outstanding > 0 then
    failwith
      (Printf.sprintf "Shinjuku.run: event cap (%d) hit with %d requests outstanding"
         cfg.max_events st.outstanding);
  if st.measured_completed = 0 then failwith "Shinjuku.run: no measured completions";
  let measured_ns = duration_ns - warmup_ns in
  let final = Engine.Sim.now sim in
  let busy = Array.fold_left (fun acc w -> acc + Hw.Core.busy_ns w.core) 0 st.workers in
  {
    Preemptible.Server.duration_ns;
    measured_ns;
    offered = st.measured_offered;
    completed = st.measured_completed;
    cancelled = 0;
    dropped = 0;
    shed = 0;
    goodput = st.measured_completed;
    goodput_rps = float_of_int st.completed_in_window *. 1e9 /. float_of_int measured_ns;
    all = Stat.Summary.report st.sum_all;
    lc =
      (if Stat.Summary.count st.sum_lc = 0 then None else Some (Stat.Summary.report st.sum_lc));
    be =
      (if Stat.Summary.count st.sum_be = 0 then None else Some (Stat.Summary.report st.sum_be));
    throughput_rps = float_of_int st.completed_in_window *. 1e9 /. float_of_int measured_ns;
    offered_rps = float_of_int st.measured_offered *. 1e9 /. float_of_int measured_ns;
    preemptions = st.preemptions;
    timer_interrupts = st.ipis_sent;
    spurious_interrupts = st.spurious;
    ctx_high_water = Preemptible.Context.high_water (Preemptible.Fn.Pool.contexts st.pool);
    worker_busy_frac =
      (if final = 0 then 0.0
       else float_of_int busy /. (float_of_int cfg.n_workers *. float_of_int final));
    long_queue_hwm = Preemptible.Rqueue.max_length st.central_q;
    dispatch_queue_hwm = 0;
    sim_events = Engine.Sim.events_fired st.sim;
    resilience = None;
    guard = None;
    trace = None;
    metrics = [];
    telemetry = None;
  }
