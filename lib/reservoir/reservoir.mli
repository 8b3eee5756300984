(** Process-wide reservoir of worker domains.

    Pools borrow their domains from here rather than spawning and
    joining their own: {!acquire} runs a function on a parked domain,
    or spawns one when none is idle, and {!join} waits until the
    function has returned {e and} its domain is parked again.  A
    parked domain that gets no work within {!grace_s} ends by itself.

    Domain-local state survives reuse: a function that sets a
    [Domain.DLS] entry must clear it before returning. *)

type t
(** One borrowed domain running one function. *)

val grace_s : float
(** How long a domain stays parked without work before it ends:
    40 ms.  A parked domain still joins every stop-the-world minor
    collection of the busy ones: two parked cost a single-domain
    simulator run ~5% more CPU.  Two fresh domains cost ~1.9 ms more
    CPU than two parked ones once they work.  The grace period is the
    ratio of the two, so parking never costs much more than the
    respawn it saves (see EXPERIMENTS.md). *)

val acquire : (unit -> unit) -> t
(** [acquire f] runs [f] on a parked domain, or on a newly spawned one
    if none is idle. *)

val join : t -> unit
(** Wait until [f] has returned and its domain is back in the
    reservoir.  Re-raises [f]'s exception, with its backtrace, if it
    raised; the domain is reusable either way. *)

val parked : unit -> int
(** Number of domains parked right now. *)
