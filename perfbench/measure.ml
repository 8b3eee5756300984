(* Clocks, order statistics and the metric record the benchmark prints. *)

let now_ns = Span.now_ns

let wall_s () = Unix.gettimeofday ()

(* Process CPU time (user + system) of every domain, as getrusage
   reports it. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Nearest-rank quantile of an ascending array (the repo's convention). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile_sorted (sorted_of_list l) 0.5

let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let div a b = if b = 0.0 then 0.0 else a /. b

let idiv a b = div (float_of_int a) (float_of_int b)

(* Run [f] [reps] times (after one warm-up call) and return the median
   wall time of one call, ns. *)
let median_call_ns ?(reps = 7) f =
  ignore (f ());
  median
    (List.init reps (fun _ ->
         let t0 = now_ns () in
         ignore (f ());
         float_of_int (now_ns () - t0)))

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int option;  (** observations behind the value, when it is a statistic *)
}

let metric ?samples name unit_ value = { name; value; unit_; samples }

let pp_metric m =
  Printf.printf "  %-36s %16.6g %-8s%s\n" m.name m.value m.unit_
    (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

(* Final line: one JSON object with exactly the keys the benchmark
   contract names, on a single line, numbers with all their digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num m.value) m.unit_)
          metrics))
