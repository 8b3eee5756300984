(* Sweep combinator: map a list of independent sweep points through a
   Pool, preserving submission order.  Every figure of the paper is a
   sweep of independent simulations, so this is the whole bench-layer
   parallelism story.

   [run ~jobs:1 f xs] is exactly [List.map f xs] — no pool, no
   domains; larger sweeps borrow their domains from the Reservoir.
   Because tasks carry isolated Rng/Sim state (seeds are data in the
   sweep points, never drawn from shared mutable state),
   [run ~jobs:n f xs = run ~jobs:1 f xs] for every [n]. *)

let default_jobs () = Domain.recommended_domain_count ()

let run ?trace ?label ~jobs f xs =
  let jobs = max 1 jobs in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when jobs = 1 -> List.map f xs
  | xs ->
    let pool = Pool.create ?trace ?label ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run_all pool (List.map (fun x () -> f x) xs))

(* Per-task seeds for sweeps that want distinct streams per point:
   derived from (seed, index) alone, so any worker count sees the same
   assignment. *)
let seeds ~seed n = List.init n (fun index -> Env.task_seed ~seed ~index)

(* Fan a sweep out and fold the per-point summaries into one.  The
   merge is associative (tested), so the fold order — submission
   order — gives one canonical result. *)
let summaries ?trace ?label ~jobs f xs =
  let parts = run ?trace ?label ~jobs f xs in
  let dst = Stat.Summary.create () in
  List.iter (fun src -> Stat.Summary.merge_into ~dst ~src) parts;
  dst

let timeseries ?trace ?label ~jobs f xs =
  let parts = run ?trace ?label ~jobs f xs in
  match parts with
  | [] -> invalid_arg "Sweep.timeseries: empty sweep"
  | first :: rest ->
    let dst = Stat.Timeseries.create ~window_ns:(Stat.Timeseries.window_ns first) in
    Stat.Timeseries.merge_into ~dst ~src:first;
    List.iter (fun src -> Stat.Timeseries.merge_into ~dst ~src) rest;
    dst
