type state = Free | Active | Preempted

type ctx = { id : int; mutable cstate : state }

let ctx_id c = c.id
let state c = c.cstate

type t = {
  pool_capacity : int;
  pool_stack_kb : int;
  mutable free : ctx array; (* released contexts, top at [n_free - 1] *)
  mutable n_free : int;
  mutable created : int; (* ids [0, created) exist; the next fresh id *)
  mutable used : int;
  mutable max_used : int;
}

exception Pool_exhausted

(* Filler for the unused tail of [free]; never handed out. *)
let none = { id = -1; cstate = Free }

let create_pool ~capacity ~stack_kb =
  if capacity <= 0 then invalid_arg "Context.create_pool: capacity must be positive";
  if stack_kb <= 0 then invalid_arg "Context.create_pool: stack size must be positive";
  {
    pool_capacity = capacity;
    pool_stack_kb = stack_kb;
    free = [||];
    n_free = 0;
    created = 0;
    used = 0;
    max_used = 0;
  }

let capacity t = t.pool_capacity
let stack_kb t = t.pool_stack_kb

(* Released contexts are reused LIFO before any fresh id is created, so
   ids come out exactly as from a free list preloaded with [0 .. capacity-1]
   in ascending order. *)
let alloc t =
  let c =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else if t.created < t.pool_capacity then begin
      let c = { id = t.created; cstate = Free } in
      t.created <- t.created + 1;
      c
    end
    else raise Pool_exhausted
  in
  c.cstate <- Active;
  t.used <- t.used + 1;
  if t.used > t.max_used then t.max_used <- t.used;
  c

let release t c =
  if c.cstate = Free then invalid_arg "Context.release: context already free";
  c.cstate <- Free;
  t.used <- t.used - 1;
  let cap = Array.length t.free in
  if t.n_free = cap then begin
    let free = Array.make (max 16 (2 * cap)) none in
    Array.blit t.free 0 free 0 cap;
    t.free <- free
  end;
  t.free.(t.n_free) <- c;
  t.n_free <- t.n_free + 1

let mark_preempted c =
  if c.cstate <> Active then invalid_arg "Context.mark_preempted: context not active";
  c.cstate <- Preempted

let mark_active c =
  if c.cstate <> Preempted then invalid_arg "Context.mark_active: context not preempted";
  c.cstate <- Active

let free_count t = t.pool_capacity - t.used
let in_use t = t.used
let high_water t = t.max_used
