(** Windowed request statistics (the "Stats" box of Fig 5).

    The scheduler collects metrics over a time window — request load µ,
    median and tail latencies, local queue lengths — and hands a
    snapshot to the policy/controller at each window boundary.  All
    recording is O(1) (P² quantile estimators), keeping the analysis off
    the critical path as the paper requires. *)

type snapshot = {
  window_start_ns : int;
  window_ns : int;
  arrivals : int;
  completions : int;
  arrival_rate_per_s : float;  (** the load µ *)
  median_ns : float;  (** sojourn median; 0 when no completions *)
  p99_ns : float;  (** sojourn p99 *)
  service_median_ns : float;
      (** median of request {e execution} times — what the tail-index
          fit must use, since queueing delay inflates sojourn tails even
          for light-tailed service *)
  service_p99_ns : float;
  max_qlen : int;
}

type t

val valid_window_ns : int -> bool
(** The check {!create} makes: a window must be positive. *)

val create : window_ns:int -> t
(** @raise Invalid_argument unless [valid_window_ns window_ns]. *)

val window_ns : t -> int

val note_arrival : t -> now:int -> unit

val note_completion : t -> now:int -> latency_ns:int -> service_ns:int -> unit

val note_qlen : t -> int -> unit
(** Record an instantaneous total queue length observation. *)

val ready : t -> now:int -> bool
(** Has the current window elapsed? *)

val roll : t -> now:int -> snapshot
(** Close the current window, returning its snapshot and starting a
    fresh one. *)
