type status = Created | Running | Preempted | Completed

type t = {
  mutable req : Workload.Request.t;
  ctx : Context.ctx;
  mutable st : status;
  mutable remaining : int;
  mutable deadline : int;
  mutable preemptions : int;
}

let create req ~ctx =
  { req; ctx; st = Created; remaining = req.Workload.Request.service_ns; deadline = max_int; preemptions = 0 }

module Pool = struct
  type fn = t

  type t = {
    contexts : Context.t;
    mutable fns : fn array; (* [fns.(id)] is bound to context [id] once created *)
  }

  let contexts p = p.contexts

  let acquire p req =
    let ctx = Context.alloc p.contexts in
    let id = Context.ctx_id ctx in
    let cap = Array.length p.fns in
    if id < cap && p.fns.(id).ctx == ctx then begin
      let fn = p.fns.(id) in
      fn.req <- req;
      fn.st <- Created;
      fn.remaining <- req.Workload.Request.service_ns;
      fn.deadline <- max_int;
      fn.preemptions <- 0;
      fn
    end
    else begin
      let fn = create req ~ctx in
      if id >= cap then begin
        (* The filler slots past [id] fail the [ctx ==] test above
           until their own context is first handed out. *)
        let fns = Array.make (max (id + 1) (2 * cap)) fn in
        Array.blit p.fns 0 fns 0 cap;
        p.fns <- fns
      end;
      p.fns.(id) <- fn;
      fn
    end

  let release p fn = Context.release p.contexts fn.ctx

  (* Defined last: [create] above is the record constructor. *)
  let create contexts = { contexts; fns = [||] }
end

let request t = t.req
let context t = t.ctx
let status t = t.st
let remaining_ns t = t.remaining
let deadline_ns t = t.deadline
let preempt_count t = t.preemptions

let set_deadline t ~now ~quantum_ns =
  t.deadline <- (if quantum_ns = max_int then max_int else now + quantum_ns)

let launch t ~now ~quantum_ns =
  if t.st <> Created then invalid_arg "Fn.launch: function already launched";
  t.st <- Running;
  set_deadline t ~now ~quantum_ns

let resume t ~now ~quantum_ns =
  if t.st <> Preempted then invalid_arg "Fn.resume: function not preempted";
  Context.mark_active t.ctx;
  t.st <- Running;
  set_deadline t ~now ~quantum_ns

let note_progress t ~executed_ns =
  if executed_ns < 0 then invalid_arg "Fn.note_progress: negative progress";
  if executed_ns > t.remaining then invalid_arg "Fn.note_progress: progress exceeds remaining work";
  t.remaining <- t.remaining - executed_ns

let preempt t =
  if t.st <> Running then invalid_arg "Fn.preempt: function not running";
  Context.mark_preempted t.ctx;
  t.st <- Preempted;
  t.deadline <- max_int;
  t.preemptions <- t.preemptions + 1

let complete t =
  if t.st <> Running then invalid_arg "Fn.complete: function not running";
  if t.remaining <> 0 then invalid_arg "Fn.complete: work remains";
  t.st <- Completed;
  t.deadline <- max_int

let completed t = t.st = Completed

let sojourn_ns t ~now = now - t.req.Workload.Request.arrival_ns
