(** Sweep combinator: map a list of independent sweep points through a
    {!Pool}, preserving submission order.  Every figure of the paper is
    a sweep of independent simulations, so this is the whole
    bench-layer parallelism story.

    [run ~jobs:1 f xs] is exactly [List.map f xs] — no pool, no
    domains.  [run ~jobs:n] with [n > 1] borrows [n] domains from the
    process-wide {!Reservoir} for the sweep and returns them at its
    end; consecutive sweeps reuse them while no gap between them
    reaches {!Reservoir.grace_s} (see {!Pool}).  Because tasks carry
    isolated Rng/Sim state (seeds are data in the sweep points, never
    drawn from shared mutable state),
    [run ~jobs:n f xs = run ~jobs:1 f xs] for every [n].  CI pins this
    with a jobs-1-vs-8 byte-diff of the gated figures. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?trace:Obs.Trace.t -> ?label:string -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run ~jobs f xs] maps [f] over [xs] using at most [jobs] workers,
    returning results in the order of [xs].  [jobs] is clamped to at
    least 1; empty and singleton sweeps never build a pool. *)

val seeds : seed:int64 -> int -> int64 list
(** [seeds ~seed n] derives [n] per-point seeds from [(seed, index)]
    alone (via {!Env.task_seed}), so any worker count sees the same
    assignment. *)

val summaries :
  ?trace:Obs.Trace.t ->
  ?label:string ->
  jobs:int ->
  ('a -> Stat.Summary.t) ->
  'a list ->
  Stat.Summary.t
(** Fan a sweep out and fold the per-point summaries into one.  The
    merge is associative (tested), so the fold order — submission
    order — gives one canonical result. *)

val timeseries :
  ?trace:Obs.Trace.t ->
  ?label:string ->
  jobs:int ->
  ('a -> Stat.Timeseries.t) ->
  'a list ->
  Stat.Timeseries.t
(** Like {!summaries} for windowed timeseries; all points must share
    the first point's window width.
    @raise Invalid_argument on an empty sweep. *)
