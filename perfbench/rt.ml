(* The benchmark's own open-loop dispatcher over the public
   [Fiber_rt.Pool] API, for the traced run.  It replays a pre-generated
   schedule the way [Fiber_rt.Sched.run] does — sleep until each
   request's intended arrival, submit, burn the service time as active
   CPU in 20 µs chunks with a safepoint between chunks — and records
   the submit and start instants that [Sched.run] keeps to itself (for
   generator lateness and submit-to-start lag).  Latency, failures and
   CPU cost are measured on [Scenario.run_rt], the library's own
   executor. *)

let chunk_ns = 20_000

let spin clk ns =
  let remaining = ref ns in
  while !remaining > 0 do
    let c = min !remaining chunk_ns in
    let t0 = Fiber_rt.Deadline_clock.now_ns clk in
    while Fiber_rt.Deadline_clock.now_ns clk - t0 < c do
      ()
    done;
    remaining := !remaining - c;
    Fiber_rt.Pool.checkpoint ()
  done

type run = {
  offered : int;
  completed : int;
  failed : int;
  wall_ns : int;  (** dispatch start to last completion *)
  submit_late_ns : int array;  (** submit - intended arrival *)
  start_lag_ns : int array;  (** body start - submit *)
}

let replay ~workers ~quantum_ns (schedule : Fiber_rt.Sched.item array) =
  let n = Array.length schedule in
  let submit_late_ns = Array.make n 0 in
  let submit_at = Array.make n 0 in
  let start_at = Array.make n 0 in
  let pool =
    Span.with_ "fiber_rt.pool_create" (fun () ->
        Fiber_rt.Pool.create ~quantum_ns ~workers ())
  in
  let clk = Fiber_rt.Pool.clock pool in
  let now () = Fiber_rt.Deadline_clock.now_ns clk in
  let wall_ns =
    Span.with_ "fiber_rt.sched_run" (fun () ->
        let t0 = now () in
        Array.iteri
          (fun i (it : Fiber_rt.Sched.item) ->
            let target = t0 + it.at_ns in
            let gap = target - now () in
            if gap > 0 then Unix.sleepf (float_of_int gap *. 1e-9);
            let t = now () in
            submit_at.(i) <- t;
            submit_late_ns.(i) <- t - target;
            Fiber_rt.Pool.submit pool ~lc:it.lc (fun () ->
                start_at.(i) <- now ();
                spin clk it.service_ns))
          schedule;
        Fiber_rt.Pool.drain pool;
        now () - t0)
  in
  let st = Fiber_rt.Pool.stats pool in
  Span.with_ "fiber_rt.shutdown" (fun () -> Fiber_rt.Pool.shutdown pool);
  {
    offered = n;
    completed = Array.fold_left ( + ) 0 st.Fiber_rt.Pool.executed;
    failed = st.Fiber_rt.Pool.failed;
    wall_ns;
    submit_late_ns;
    start_lag_ns = Array.mapi (fun i s -> s - submit_at.(i)) start_at;
  }

(* Preemption lag: a job spinning well past quantum [q] on a
   one-worker pool, then a second job queued behind it once the first
   has started.  The second job's start minus (first job's start + q)
   is the time the runtime took to act on the expired quantum. *)
let preempt_lag_ns ~quantum_ns ~trials =
  let pool = Fiber_rt.Pool.create ~quantum_ns ~workers:1 () in
  let clk = Fiber_rt.Pool.clock pool in
  let now () = Fiber_rt.Deadline_clock.now_ns clk in
  let lags =
    Array.init trials (fun _ ->
        let a_start = Atomic.make 0 in
        let b_start = Atomic.make 0 in
        Fiber_rt.Pool.submit pool (fun () ->
            Atomic.set a_start (now ());
            spin clk (3 * quantum_ns));
        while Atomic.get a_start = 0 do
          Domain.cpu_relax ()
        done;
        Fiber_rt.Pool.submit pool (fun () -> Atomic.set b_start (now ()));
        Fiber_rt.Pool.drain pool;
        Atomic.get b_start - (Atomic.get a_start + quantum_ns))
  in
  Fiber_rt.Pool.shutdown pool;
  lags
