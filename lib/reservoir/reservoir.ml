(* Process-wide reservoir of worker domains.

   LibPreemptible keeps its worker kernel threads alive and hands them
   user-level functions; this is the same idea one level down.  Pools
   borrow domains from here instead of spawning and joining their own.
   Every [Domain.spawn] under lib/ is the one in [acquire].

   A slot is one domain plus a pipe.  Parked, the domain waits in
   [Unix.select] on the pipe's read end; [acquire] hands it work by
   storing the function in the slot and writing one byte.  When the
   function returns, the domain puts its slot back on [idle] and only
   then marks the handle finished, both under [m]: a pool that shuts
   down and is created again at once finds its domains parked rather
   than spawning fresh ones beside them.

   A parked domain is not free.  It sits in a blocking section, yet
   every stop-the-world minor collection in the busy domains still has
   to bring its backup thread in.  So a slot that waits [grace_s]
   without work removes itself from [idle] and lets its domain end.
   OCaml 5.1's [Condition] has no timed wait, hence the pipe. *)

(* Ski rental: keep a domain parked for as long as parking costs what
   spawning it again would.  On a 2-vCPU host, two fresh domains that
   then work cost ~1.9 ms more CPU than two parked ones (the spawn and
   join, and the page faults of a fresh minor heap), and two parked
   domains cost a busy single-domain simulator run ~0.05 CPU s per
   second; 1.9 ms / 0.05 ~ 38 ms, rounded to 40 ms.  [bench --reservoir]
   measures both; EXPERIMENTS.md has the numbers. *)
let grace_s = 0.040

type t = {
  hc : Condition.t;
  mutable finished : bool; (* under m *)
  mutable failure : (exn * Printexc.raw_backtrace) option; (* under m *)
}

type slot = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  buf : Bytes.t;
  mutable next : ((unit -> unit) * t) option; (* handed-over work, under m *)
}

let m = Mutex.create ()

(* Parked slots, most recently parked first, so reuse favours the
   domain whose caches are warmest and the oldest ones age out. *)
let idle : slot list ref = ref []

let parked () = Mutex.protect m (fun () -> List.length !idle)

(* A select error other than EINTR (say, an fd past FD_SETSIZE) reads
   as a timeout: the domain then retires after each use, which is
   slower but still correct. *)
let rec readable fd timeout_s =
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> false
  | _ :: _, _, _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable fd timeout_s
  | exception Unix.Unix_error _ -> false

let rec read_byte slot =
  match Unix.read slot.rd slot.buf 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_byte slot

let rec write_byte slot =
  match Unix.write_substring slot.wr "x" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_byte slot

let rec serve slot f h =
  let failure =
    match f () with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock m;
  idle := slot :: !idle;
  h.finished <- true;
  h.failure <- failure;
  Condition.broadcast h.hc;
  Mutex.unlock m;
  park slot

(* A timeout retires the slot only if it is still in [idle].  If it is
   not, a hand-over raced the timeout and its byte is on the way. *)
and park slot =
  let woken = readable slot.rd grace_s in
  Mutex.lock m;
  let retire = (not woken) && List.memq slot !idle in
  if retire then idle := List.filter (fun s -> s != slot) !idle;
  Mutex.unlock m;
  if retire then begin
    Unix.close slot.rd;
    Unix.close slot.wr
  end
  else begin
    read_byte slot;
    Mutex.lock m;
    let f, h = Option.get slot.next in
    slot.next <- None;
    Mutex.unlock m;
    serve slot f h
  end

let acquire f =
  let h = { hc = Condition.create (); finished = false; failure = None } in
  Mutex.lock m;
  (match !idle with
  | slot :: rest ->
    idle := rest;
    slot.next <- Some (f, h);
    Mutex.unlock m;
    write_byte slot
  | [] -> (
    Mutex.unlock m;
    let rd, wr = Unix.pipe ~cloexec:true () in
    let slot = { rd; wr; buf = Bytes.create 1; next = None } in
    match Domain.spawn (fun () -> serve slot f h) with
    | (_ : unit Domain.t) -> ()
    | exception e ->
      Unix.close rd;
      Unix.close wr;
      raise e));
  h

let join h =
  Mutex.lock m;
  while not h.finished do
    Condition.wait h.hc m
  done;
  let failure = h.failure in
  Mutex.unlock m;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure
