(** Preemptible functions — the scheduler-facing unit of execution
    (Sec III-D / IV-C).

    A function thread [Fn] pairs a request with a {!Context.ctx} and a
    deadline.  [fn_launch] starts it; control returns to the caller when
    it completes or its time slice expires; [fn_resume] continues a
    preempted function; [fn_completed] tests for completion.  In the
    simulation the actual CPU time is driven by {!Hw.Core}; this module
    owns the bookkeeping (remaining work, deadline, status, per-request
    accounting). *)

type status = Created | Running | Preempted | Completed

type t

val create : Workload.Request.t -> ctx:Context.ctx -> t
(** A fresh function record bound to [ctx]. *)

val request : t -> Workload.Request.t

val context : t -> Context.ctx

val status : t -> status

val remaining_ns : t -> int

val deadline_ns : t -> int
(** Absolute deadline set by the last launch/resume; [max_int] when
    none. *)

val preempt_count : t -> int

val launch : t -> now:int -> quantum_ns:int -> unit
(** [fn_launch]: mark running with deadline [now + quantum]. Raises if
    not in [Created] state. *)

val resume : t -> now:int -> quantum_ns:int -> unit
(** [fn_resume]: continue a preempted function. Raises if not
    [Preempted]. *)

val note_progress : t -> executed_ns:int -> unit
(** Account [executed_ns] of service received (on preemption or
    completion). Raises if it exceeds the remaining work. *)

val preempt : t -> unit
(** Mark preempted (after {!note_progress}). Raises if not running. *)

val complete : t -> unit
(** Mark completed. Raises if work remains or not running. *)

val completed : t -> bool
(** [fn_completed]. *)

val sojourn_ns : t -> now:int -> int
(** Time since arrival. *)

(** Function records recycled together with their contexts.

    Contexts and functions are one-to-one, so the pool keeps one record
    per context id: {!Pool.acquire} takes a context from the underlying
    {!Context.t} and resets the record bound to it, allocating a record
    only the first time that context is handed out.  A record released
    with {!Pool.release} may back the next request at the following
    {!Pool.acquire}, so holding it past release observes that request. *)
module Pool : sig
  type fn := t

  type t

  val create : Context.t -> t

  val contexts : t -> Context.t

  val acquire : t -> Workload.Request.t -> fn
  (** A function in the [Created] state for the request, with no
      preemptions, no deadline, and the request's full service time
      remaining.  Raises {!Context.Pool_exhausted} as {!Context.alloc}
      does. *)

  val release : t -> fn -> unit
  (** Return the function's context to the pool (see
      {!Context.release}). *)
end
