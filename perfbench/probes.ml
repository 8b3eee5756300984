(* Isolated layer probes for the traced run.  Each one calls a single
   layer's public functions, is warmed up before it is timed, and is
   sized by the caller to the workload it reports for. *)

open Measure

(* Host ns per event of a self-rescheduling population of [depth]
   events: every callback schedules its successor at a random delay, so
   the heap holds [depth] live events throughout. *)
let engine_heap_ns_per_event ~depth ~events =
  let sim = Engine.Sim.create ~seed:7L () in
  let rng = Engine.Sim.fork_rng sim in
  let span = 64 * depth in
  let rec fire () = ignore (Engine.Sim.after sim (1 + Engine.Rng.int rng span) fire) in
  for _ = 1 to depth do
    ignore (Engine.Sim.after sim (1 + Engine.Rng.int rng span) fire)
  done;
  Engine.Sim.run ~max_events:(max depth (events / 10)) sim;
  let t0 = now_ns () in
  Engine.Sim.run ~max_events:events sim;
  idiv (now_ns () - t0) events

(* One push + one pop on a request queue held at [depth] elements. *)
let rqueue_ns_per_op ~depth ~ops =
  let q = Preemptible.Rqueue.create ~name:"probe" in
  for i = 1 to max 1 depth do
    Preemptible.Rqueue.push q ~now:i i
  done;
  let cycle n =
    for i = 1 to n do
      Preemptible.Rqueue.push q ~now:i i;
      ignore (Preemptible.Rqueue.pop q ~now:i)
    done
  in
  cycle (ops / 10);
  let t0 = now_ns () in
  cycle ops;
  idiv (now_ns () - t0) (2 * ops)

(* Replay recorded window snapshots through a fresh Algorithm-1
   controller; ns per [observe]. *)
let controller_observe_ns ~config ~max_load_per_s ~init_ns snapshots =
  match snapshots with
  | [] -> 0.0
  | _ ->
    let n = List.length snapshots in
    let rounds = max 1 (200_000 / n) in
    let replay () =
      let c =
        Preemptible.Quantum_controller.create ~config ~max_load_per_s
          ~initial_quantum_ns:init_ns ()
      in
      List.iter (fun s -> ignore (Preemptible.Quantum_controller.observe c s)) snapshots
    in
    replay ();
    let t0 = now_ns () in
    for _ = 1 to rounds do
      replay ()
    done;
    idiv (now_ns () - t0) (rounds * n)

let lognormal_ns rng = Engine.Rng.lognormal rng ~mu:9.0 ~sigma:1.5

(* Bucket-wise merge of [members] sketches of [per_member] samples each
   into an empty fleet sketch, µs per whole merge. *)
let sketch_merge_us ~members ~per_member =
  let rng = Engine.Rng.create 11L in
  let parts =
    Array.init members (fun _ ->
        let s = Obs.Sketch.create () in
        for _ = 1 to per_member do
          Obs.Sketch.add s (lognormal_ns rng)
        done;
        s)
  in
  median_call_ns ~reps:31 (fun () ->
      let dst = Obs.Sketch.create () in
      Array.iter (fun src -> Obs.Sketch.merge_into ~dst ~src) parts)
  /. 1e3

let values n =
  let rng = Engine.Rng.create 13L in
  Array.init n (fun _ -> lognormal_ns rng)

let sketch_add_ns ~n =
  let v = values n in
  let s = Obs.Sketch.create () in
  Array.iter (Obs.Sketch.add s) v;
  Obs.Sketch.clear s;
  let t0 = now_ns () in
  Array.iter (Obs.Sketch.add s) v;
  idiv (now_ns () - t0) n

let summary_record_ns ~n =
  let v = values n in
  ignore (Stat.Summary.create () |> fun s -> Array.iter (Stat.Summary.record s) v);
  let s = Stat.Summary.create () in
  let t0 = now_ns () in
  Array.iter (Stat.Summary.record s) v;
  idiv (now_ns () - t0) n

(* [Stat.Summary.report] on a summary holding [n] observations, ms. *)
let stat_report_ms ~n =
  let s = Stat.Summary.create () in
  Array.iter (Stat.Summary.record s) (values (max 1 n));
  Span.with_ "stat.report" (fun () -> median_call_ns ~reps:15 (fun () -> Stat.Summary.report s))
  /. 1e6

(* The workload's arrival and service stream drawn through the public
   samplers, ns per request. *)
let workload_sample_ns_per_req (s : Scenario.t) ~n =
  let arrival = Scenario.arrival_process s in
  let source = Scenario.source_sampler s in
  let rng = Engine.Rng.create s.Scenario.seed in
  let now = ref 0 in
  let draw k =
    for _ = 1 to k do
      now := !now + Workload.Arrival.next_gap arrival rng ~now:!now;
      if !now >= s.Scenario.duration_ns then now := 0;
      ignore (Workload.Source.draw source rng ~now:!now)
    done
  in
  draw (n / 10);
  let t0 = now_ns () in
  draw n;
  idiv (now_ns () - t0) n

(* Owner push then owner pop of [n] elements; ns per operation. *)
let deque_ns_per_op ~n =
  let d = Fiber_rt.Spmc_deque.create () in
  let cycle () =
    for i = 1 to n do
      Fiber_rt.Spmc_deque.push d i
    done;
    for _ = 1 to n do
      ignore (Fiber_rt.Spmc_deque.pop d)
    done
  in
  cycle ();
  let t0 = now_ns () in
  cycle ();
  idiv (now_ns () - t0) (2 * n)

(* Uncontended steal (FIFO end, CAS-fenced) of [n] elements; ns each. *)
let deque_steal_ns ~n =
  let d = Fiber_rt.Spmc_deque.create () in
  let fill () =
    for i = 1 to n do
      Fiber_rt.Spmc_deque.push d i
    done
  in
  let drain () =
    for _ = 1 to n do
      ignore (Fiber_rt.Spmc_deque.steal d)
    done
  in
  fill ();
  drain ();
  fill ();
  let t0 = now_ns () in
  drain ();
  idiv (now_ns () - t0) n
