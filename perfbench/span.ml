(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around calls into a
   layer's public functions (nothing inside lib/ is instrumented).
   Each span carries a name, wall-clock start and end, the span that
   caused it and the id of the workload run it belongs to.  Spans are
   kept in memory and written out once, when the benchmark ends. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  run : int;
  name : string;
  start_ns : int;
  end_ns : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let enabled = ref false
let run_id = ref 0
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []

(* Open spans of the calling domain, innermost first. *)
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current () = match Domain.DLS.get stack with id :: _ -> id | [] -> 0

(* [with_ name f] runs [f] inside a span.  [parent] overrides the
   caller's innermost open span, for work handed to another domain. *)
let with_ ?parent name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let st = Domain.DLS.get stack in
    let parent = match parent with Some p -> p | None -> current () in
    let run = !run_id in
    Domain.DLS.set stack (id :: st);
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = now_ns () in
        Domain.DLS.set stack st;
        Mutex.protect lock (fun () ->
            recorded := { id; parent; run; name; start_ns; end_ns } :: !recorded))
      f
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let duration s = s.end_ns - s.start_ns

(* Self time: the span's duration minus the part of it that its child
   spans cover (children may overlap when they run on other domains). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      (s, duration s - covered))
    spans

type summary = { s_name : string; count : int; total_ns : int; self_ns : int; max_ns : int }

let summarize spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c, tot, sf, mx =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0, 0, 0)
      in
      Hashtbl.replace tbl s.name (c + 1, tot + duration s, sf + self, max mx (duration s)))
    (self_times spans);
  Hashtbl.fold
    (fun s_name (count, total_ns, self_ns, max_ns) acc ->
      { s_name; count; total_ns; self_ns; max_ns } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

let by_name spans name = List.filter (fun s -> s.name = name) spans

let to_json spans =
  let num i = Obs.Json.Num (float_of_int i) in
  Obs.Json.Obj
    [
      ( "spans",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("id", num s.id);
                   ("parent", num s.parent);
                   ("run", num s.run);
                   ("name", Obs.Json.Str s.name);
                   ("start_ns", num s.start_ns);
                   ("end_ns", num s.end_ns);
                 ])
             spans) );
      ( "summary",
        Obs.Json.List
          (List.map
             (fun m ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str m.s_name);
                   ("count", num m.count);
                   ("total_ns", num m.total_ns);
                   ("self_ns", num m.self_ns);
                   ("max_ns", num m.max_ns);
                 ])
             (summarize spans)) );
    ]
