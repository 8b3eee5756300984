(* Task pool with a fixed worker count, on domains borrowed from the
   process-wide Reservoir.

   Determinism contract: results are delivered through promises in
   submission order (Pool.run_all / Sweep.run await them in the order
   the tasks were submitted), and every task must carry its own
   Rng/Sim state — the simulator already guarantees that, since each
   Server.run builds a private Sim from an explicit seed.  Under that
   contract a run at any worker count is bit-identical to the
   sequential run: the pool only changes *when* a task executes, never
   what it computes or where its result lands.

   With [jobs = 1] no domain is borrowed at all: tasks run inline at
   submission time in the caller's domain, preserving the exact
   sequential behaviour (allocation pattern included) of the
   pre-pool harness. *)

type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable outcome : 'a outcome;
}

type stats = {
  jobs : int;
  submitted : int;
  completed : int;
  failed : int;
  max_occupancy : int;  (* peak number of tasks in flight *)
  tasks_per_worker : int array;
  busy_ns_per_worker : int array;  (* wall-clock, bookkeeping only *)
}

type 'a t = {
  n_jobs : int;
  label : string;
  qm : Mutex.t;  (* guards q, closed and every mutable counter below *)
  qc : Condition.t;
  q : (int * (unit -> 'a) * 'a promise) Queue.t;
  mutable closed : bool;
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable active : int;
  mutable peak : int;
  wtasks : int array;
  wbusy : int array;
  mutable domains : Reservoir.t array;
  trace : Obs.Trace.t option;
  tm : Mutex.t;  (* trace rings are single-writer; serialize emission *)
}

let jobs t = t.n_jobs

(* -- trace probes (coarse: two events per task, nothing on the sim's
      hot path) ----------------------------------------------------- *)

let tr_task_begin t ~worker ~task =
  match t.trace with
  | None -> ()
  | Some tr ->
    Mutex.lock t.tm;
    Obs.Trace.span_begin tr Obs.Trace.Exec ~name:t.label ~track:worker ~arg:task;
    Obs.Trace.counter tr Obs.Trace.Exec ~name:"pool.occupancy" ~value:t.active;
    Mutex.unlock t.tm

let tr_task_end t ~worker =
  match t.trace with
  | None -> ()
  | Some tr ->
    Mutex.lock t.tm;
    Obs.Trace.span_end tr Obs.Trace.Exec ~name:t.label ~track:worker;
    Obs.Trace.counter tr Obs.Trace.Exec ~name:"pool.occupancy" ~value:t.active;
    Mutex.unlock t.tm

(* -- task execution ------------------------------------------------ *)

let fulfill p outcome =
  Mutex.lock p.pm;
  p.outcome <- outcome;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let exec_task t ~worker id fn p =
  tr_task_begin t ~worker ~task:id;
  let t0 = Env.now_ns () in
  let outcome =
    try Done (fn ())
    with e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  let dt = Env.now_ns () - t0 in
  Mutex.lock t.qm;
  t.active <- t.active - 1;
  t.wtasks.(worker) <- t.wtasks.(worker) + 1;
  t.wbusy.(worker) <- t.wbusy.(worker) + dt;
  (match outcome with
  | Failed _ -> t.n_failed <- t.n_failed + 1
  | Done _ | Pending -> t.n_completed <- t.n_completed + 1);
  Mutex.unlock t.qm;
  tr_task_end t ~worker;
  fulfill p outcome

let rec worker_loop t ~worker =
  Mutex.lock t.qm;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.qc t.qm
  done;
  if Queue.is_empty t.q then Mutex.unlock t.qm (* closed and drained *)
  else begin
    let id, fn, p = Queue.pop t.q in
    t.active <- t.active + 1;
    if t.active > t.peak then t.peak <- t.active;
    Mutex.unlock t.qm;
    exec_task t ~worker id fn p;
    worker_loop t ~worker
  end

(* -- public api ---------------------------------------------------- *)

let create ?trace ?(label = "task") ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      label;
      qm = Mutex.create ();
      qc = Condition.create ();
      q = Queue.create ();
      closed = false;
      n_submitted = 0;
      n_completed = 0;
      n_failed = 0;
      active = 0;
      peak = 0;
      wtasks = Array.make jobs 0;
      wbusy = Array.make jobs 0;
      domains = [||];
      trace;
      tm = Mutex.create ();
    }
  in
  if jobs > 1 then
    t.domains <-
      Array.init jobs (fun worker -> Reservoir.acquire (fun () -> worker_loop t ~worker));
  t

let submit t fn =
  let p = { pm = Mutex.create (); pc = Condition.create (); outcome = Pending } in
  Mutex.lock t.qm;
  if t.closed then begin
    Mutex.unlock t.qm;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let id = t.n_submitted in
  t.n_submitted <- id + 1;
  if t.n_jobs = 1 then begin
    (* Inline execution: sequential semantics, no domain involved. *)
    t.active <- t.active + 1;
    if t.active > t.peak then t.peak <- t.active;
    Mutex.unlock t.qm;
    exec_task t ~worker:0 id fn p
  end
  else begin
    Queue.push (id, fn, p) t.q;
    Condition.signal t.qc;
    Mutex.unlock t.qm
  end;
  p

let await p =
  Mutex.lock p.pm;
  while (match p.outcome with Pending -> true | Done _ | Failed _ -> false) do
    Condition.wait p.pc p.pm
  done;
  let outcome = p.outcome in
  Mutex.unlock p.pm;
  match outcome with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

(* Submit the whole batch first, then await in submission order: the
   caller observes results exactly as List.map would produce them. *)
let run_all t fns =
  let ps = List.map (fun fn -> submit t fn) fns in
  List.map await ps

let shutdown t =
  Mutex.lock t.qm;
  t.closed <- true;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm;
  Array.iter Reservoir.join t.domains;
  t.domains <- [||]

let stats t =
  Mutex.lock t.qm;
  let s =
    {
      jobs = t.n_jobs;
      submitted = t.n_submitted;
      completed = t.n_completed;
      failed = t.n_failed;
      max_occupancy = t.peak;
      tasks_per_worker = Array.copy t.wtasks;
      busy_ns_per_worker = Array.copy t.wbusy;
    }
  in
  Mutex.unlock t.qm;
  s

let pp_stats fmt s =
  Format.fprintf fmt "jobs=%d tasks=%d (failed %d) peak-occupancy=%d per-worker=[%s]"
    s.jobs s.submitted s.failed s.max_occupancy
    (String.concat ";" (Array.to_list (Array.map string_of_int s.tasks_per_worker)))
