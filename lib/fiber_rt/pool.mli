(** Blocking-aware multicore fiber pool with work stealing.

    [create ~workers ()] borrows [workers] domains from the
    process-wide {!Reservoir}, each owning a
    {!Fiber} runtime in [External] timer mode plus two Chase-Lev deques
    (one per request class), and one shared timer domain that sweeps
    every worker's deadline slot — the LibUtimer topology of a single
    timer core arming N deadline lines — and re-injects parked
    (sleeping) fibers when their wake time passes.

    Per-worker scheduling order: fresh inbox first (so new short work
    is not stuck behind parked long fibers), then the worker's own LC
    and BE deques (LIFO), then stealing — every victim is scanned for
    LC work before any BE work is touched (LC-first victim selection).
    Preempted fibers are pushed back on the {e owner's} deque and may
    be stolen and resumed by another domain ({!Fiber.fn_resume_on});
    fiber bodies must therefore use {!checkpoint}/{!sleep_ns} (which
    resolve the current runtime through domain-local state) rather than
    capturing a runtime.

    Idle workers block on a condition variable (no busy spinning), so
    an idle pool costs ~nothing — and a loaded pool on a single-core
    host is not starved by its own idle siblings. *)

type t

type stats = {
  executed : int array;  (** jobs completed, per worker domain *)
  stolen : int array;  (** successful steals, per thief domain *)
  preemptions : int;  (** involuntary preemptions, pool-wide *)
  failed : int;  (** jobs whose body raised *)
}

val create : ?quantum_ns:int -> workers:int -> unit -> t
(** Borrows [workers] + 1 (timer) domains on a wall clock.  Omitting
    [quantum_ns] disables preemption (fibers run until they yield,
    sleep, or complete).  Raises on [workers < 1] or a non-positive
    quantum. *)

val submit : t -> ?quantum_ns:int -> ?lc:bool -> (unit -> unit) -> unit
(** Enqueue a job (default [lc:true]; [quantum_ns] overrides the pool
    quantum for this job).  Safe from any domain, including pool
    workers.  If the body raises, the exception is swallowed and
    counted in [stats.failed].  Raises once the pool is shut down. *)

val checkpoint : unit -> unit
(** Safepoint for job bodies: yields if the current fiber's slice
    expired.  Resolves the runtime via domain-local state, so it works
    unchanged after the fiber is stolen to another domain.  No-op off
    the pool. *)

val sleep_ns : int -> unit
(** Block the current fiber for at least [ns]: it parks off-queue
    (freeing the domain) and the timer domain re-injects it through the
    inbox when the wake time passes.  Raises [Invalid_argument] when
    called off a pool worker. *)

val drain : t -> unit
(** Wait until every submitted job has completed (or failed). *)

val stats : t -> stats

val size : t -> int
(** Number of worker domains. *)

val clock : t -> Deadline_clock.t
(** The pool's wall clock. *)

val shutdown : t -> unit
(** Stop the pool and return its domains to the reservoir, where they
    stay parked for {!Reservoir.grace_s}.  Idempotent.  Call {!drain}
    first if pending work must finish; jobs still parked or queued at
    shutdown are abandoned. *)
