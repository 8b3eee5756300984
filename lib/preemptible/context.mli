(** fcontext-style execution contexts (Sec IV-B).

    The dispatcher allocates context objects and stack space for each
    request from a global memory pool whose size the application
    defines.  A context is attached to a function when it launches,
    parked on the global wait list when the function is preempted, and
    returned to the free list when the function completes.

    The pool's [capacity] is the application's limit on contexts in use
    at once, not an up-front allocation: a context is created the first
    time the free list is empty and fewer than [capacity] exist, and
    released contexts are reused LIFO before any new one is created.
    Ids therefore come out exactly as from a free list preloaded with
    [0 .. capacity-1] in ascending order, and {!Pool_exhausted} fires on
    the same request. *)

type state = Free | Active | Preempted

type ctx

val ctx_id : ctx -> int

val state : ctx -> state

type t
(** A context pool. *)

exception Pool_exhausted

val create_pool : capacity:int -> stack_kb:int -> t
(** Raises [Invalid_argument] on non-positive capacity or stack size. *)

val capacity : t -> int

val stack_kb : t -> int

val alloc : t -> ctx
(** Take the most recently released context, or create the next id;
    raises {!Pool_exhausted} when [capacity] contexts are in use (the
    application chose the pool size). *)

val release : t -> ctx -> unit
(** Return a context to the free list. Raises [Invalid_argument] if the
    context is already free. *)

val mark_preempted : ctx -> unit
(** Move an active context to the preempted state (it now lives on the
    scheduler's wait list). *)

val mark_active : ctx -> unit
(** Reactivate a preempted context (resume). *)

val free_count : t -> int

val in_use : t -> int

val high_water : t -> int
(** Maximum simultaneous contexts in use over the pool's lifetime. *)
