(** Task pool with a fixed worker count, on domains borrowed from the
    process-wide {!Reservoir}.

    {b Determinism contract.}  Results are delivered through promises
    in submission order ({!run_all} awaits them in the order the tasks
    were submitted), and every task must carry its own Rng/Sim state —
    the simulator guarantees that, since each [Server.run] builds a
    private [Engine.Sim.t] from an explicit seed.  Under that contract
    a run at any worker count is bit-identical to the sequential run:
    the pool only changes {e when} a task executes, never what it
    computes or where its result lands.

    With [jobs = 1] no domain is borrowed at all: tasks run inline at
    submission time in the caller's domain, preserving the exact
    sequential behaviour (allocation pattern included) of a plain
    [List.map].

    {b Domains.}  A pool with [jobs > 1] borrows its workers from the
    reservoir and gives them back at {!shutdown}, so back-to-back
    pools run on the same domains instead of spawning and joining
    fresh ones.  A returned domain stays parked for
    {!Reservoir.grace_s} (40 ms); while parked it still takes part in
    every stop-the-world minor collection of the busy domains, which
    costs a running simulation a few percent more CPU, and then it
    ends by itself.  Domain-local state therefore outlives a pool: a
    task that sets a [Domain.DLS] entry must clear it. *)

type 'a t
(** A pool executing tasks that each return an ['a]. *)

type 'a promise
(** Handle for one submitted task's eventual result. *)

type stats = {
  jobs : int;
  submitted : int;
  completed : int;
  failed : int;
  max_occupancy : int;  (** peak number of tasks in flight *)
  tasks_per_worker : int array;
  busy_ns_per_worker : int array;  (** wall-clock, bookkeeping only *)
}
(** Snapshot of pool accounting; see {!stats}. *)

val create : ?trace:Obs.Trace.t -> ?label:string -> jobs:int -> unit -> 'a t
(** [create ~jobs ()] starts a pool with [jobs] workers.  [jobs = 1]
    runs tasks inline; [jobs > 1] borrows that many domains from the
    reservoir, spawning only those it cannot find parked.  When
    [trace] is given, two coarse events per task (begin/end spans and
    an occupancy counter) are emitted — nothing on the simulator's hot
    path.  @raise Invalid_argument if [jobs < 1]. *)

val jobs : 'a t -> int
(** Worker count the pool was created with. *)

val submit : 'a t -> (unit -> 'a) -> 'a promise
(** Enqueue one task.  @raise Invalid_argument after {!shutdown}. *)

val await : 'a promise -> 'a
(** Block until the task finishes.  Re-raises the task's exception
    (with its original backtrace) if it failed. *)

val run_all : 'a t -> (unit -> 'a) list -> 'a list
(** Submit the whole batch first, then await in submission order: the
    caller observes results exactly as [List.map] would produce them. *)

val shutdown : 'a t -> unit
(** Close the queue, drain remaining tasks and return the domains to
    the reservoir; they are parked again when [shutdown] returns. *)

val stats : 'a t -> stats
(** Consistent snapshot of the accounting counters. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line human-readable rendering of {!type:stats}. *)
