(* A bounded FIFO handoff between the connection threads (producers)
   and the worker domains (consumers). Admission never blocks: a full
   queue refuses the push and the caller turns that into a structured
   [rejected: queue_full] response — backpressure is explicit and
   immediate instead of silent and unbounded.

   Locking discipline: [items] and [closed] are only touched under
   [lock] (via the instrumented {!Lcp_obs.Sync.with_lock}); [guard] is
   their Sync shadow var, so [lcp race] checks the discipline under
   perturbed schedules. [nonempty] signals item arrival and close. *)

module Sync = Lcp_obs.Sync

type 'a t = {
  lock : Sync.mutex;
  nonempty : Sync.cond;
  guard : unit Sync.Var.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Jobq.create: capacity must be >= 0";
  {
    lock = Sync.mutex "serve/jobq.lock";
    nonempty = Sync.condition "serve/jobq.nonempty";
    guard = Sync.Var.make "serve/jobq.state" ();
    items = Queue.create ();
    capacity;
    closed = false;
  }

let locked t f = Sync.with_lock t.lock f

let try_push t x =
  locked t (fun () ->
      Sync.Var.touch t.guard;
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Sync.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      let rec wait () =
        Sync.Var.touch t.guard;
        match Queue.take_opt t.items with
        | Some x -> Some x
        | None ->
            if t.closed then None
            else begin
              Sync.wait t.nonempty t.lock;
              wait ()
            end
      in
      wait ())

let close t =
  locked t (fun () ->
      Sync.Var.touch t.guard;
      t.closed <- true;
      Sync.broadcast t.nonempty)

let depth t = locked t (fun () -> Sync.Var.observe t.guard; Queue.length t.items)
let capacity t = t.capacity
let is_closed t = locked t (fun () -> Sync.Var.observe t.guard; t.closed)
