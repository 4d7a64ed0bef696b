(* The instrumented synchronization layer. See sync.mli for the event
   ordering contract the analyses rely on; the implementation notes
   here are about cost and self-consistency.

   Disarmed, every wrapper is the raw primitive behind one
   [Atomic.get] branch — no allocation, no extra locking. Armed,
   events are appended to one process-global growable array under
   [internal], a bare stdlib mutex that is deliberately NOT an
   instrumented [mutex]: recording must never recurse into recording,
   and the internal lock must never appear in the analyzed lock-order
   graph. *)

type op =
  | Acquire
  | Release
  | Wait_begin
  | Wait_end
  | Signal
  | Broadcast
  | A_read
  | A_write
  | V_read
  | V_write
  | Spawn
  | Begin
  | End
  | Join

type event = {
  seq : int;
  dom : int;
  thr : int;
  op : op;
  obj : int;
  arg : int;
  label : string;
}

type perturb = { pseed : int; period : int }

(* ------------------------------------------------------------------ *)
(* the recorder                                                        *)

let dummy =
  { seq = 0; dom = 0; thr = 0; op = Acquire; obj = -1; arg = -1; label = "" }

type state = {
  mutable events : event array;
  mutable len : int;
  mutable pert : perturb option;
  op_counts : (int * int, int ref) Hashtbl.t;
      (* (dom, thr) -> sync ops performed by that thread this session;
         drives the deterministic perturbation decision *)
}

let internal = Mutex.create ()
let armed_flag = Atomic.make false
let st = { events = [||]; len = 0; pert = None; op_counts = Hashtbl.create 64 }

let next_id = Atomic.make 0
let fresh () = Atomic.fetch_and_add next_id 1

let identity () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let push ev =
  if st.len >= Array.length st.events then begin
    let cap = max 1024 (2 * Array.length st.events) in
    let bigger = Array.make cap ev in
    Array.blit st.events 0 bigger 0 st.len;
    st.events <- bigger
  end;
  st.events.(st.len) <- ev;
  st.len <- st.len + 1

let record ?(arg = -1) op obj label =
  if Atomic.get armed_flag then begin
    let dom, thr = identity () in
    Mutex.lock internal;
    (* re-check under the lock: [disarm] flips the flag first, so a
       straggler that raced past the outer check drops its event here
       instead of polluting the next session *)
    if Atomic.get armed_flag then
      push { seq = st.len; dom; thr; op; obj; arg; label };
    Mutex.unlock internal
  end

(* Operation-entry pause: fires iff a hash of (seed, the thread's own
   op index, the op label) lands on the period. The decision depends
   only on per-thread program order and the seed — never on wall time
   or on other threads — so a seed replays its pause pattern. *)
let maybe_pause label =
  if Atomic.get armed_flag then begin
    let spin = ref (-1) in
    Mutex.lock internal;
    (match st.pert with
    | Some { pseed; period } when period > 0 ->
        let key = identity () in
        let c =
          match Hashtbl.find_opt st.op_counts key with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.replace st.op_counts key r;
              r
        in
        incr c;
        let h = Hashtbl.hash (pseed, !c, label) land max_int in
        if h mod period = 0 then spin := h
    | _ -> ());
    Mutex.unlock internal;
    if !spin >= 0 then begin
      Thread.yield ();
      for _ = 0 to !spin land 0x3f do
        Domain.cpu_relax ()
      done
    end
  end

let arm ?perturb () =
  Mutex.lock internal;
  st.events <- Array.make 1024 dummy;
  st.len <- 0;
  st.pert <- perturb;
  Hashtbl.reset st.op_counts;
  Atomic.set armed_flag true;
  Mutex.unlock internal

let disarm () =
  Atomic.set armed_flag false;
  Mutex.lock internal;
  let out = Array.sub st.events 0 st.len in
  st.events <- [||];
  st.len <- 0;
  st.pert <- None;
  Hashtbl.reset st.op_counts;
  Mutex.unlock internal;
  out

(* ------------------------------------------------------------------ *)
(* mutexes and conditions                                              *)

type mutex = { mid : int; mlabel : string; m : Mutex.t }

let mutex label = { mid = fresh (); mlabel = label; m = Mutex.create () }

let lock mu =
  maybe_pause mu.mlabel;
  Mutex.lock mu.m;
  (* logged while held: a release and the acquire it hands off to can
     never appear out of order in the trace *)
  record Acquire mu.mid mu.mlabel

let unlock mu =
  record Release mu.mid mu.mlabel;
  Mutex.unlock mu.m

let with_lock mu f =
  lock mu;
  Fun.protect ~finally:(fun () -> unlock mu) f

type cond = { cid : int; clabel : string; c : Condition.t }

let condition label = { cid = fresh (); clabel = label; c = Condition.create () }

let wait cv mu =
  (* Wait_begin doubles as Release (logged before the wait drops the
     lock), Wait_end as Acquire (logged after it is re-held) *)
  record ~arg:mu.mid Wait_begin cv.cid cv.clabel;
  Condition.wait cv.c mu.m;
  record ~arg:mu.mid Wait_end cv.cid cv.clabel

let signal cv =
  record Signal cv.cid cv.clabel;
  Condition.signal cv.c

let broadcast cv =
  record Broadcast cv.cid cv.clabel;
  Condition.broadcast cv.c

(* ------------------------------------------------------------------ *)
(* instrumented atomics                                                *)

module A = struct
  type 'a t = { aid : int; alabel : string; a : 'a Atomic.t }

  let make label v = { aid = fresh (); alabel = label; a = Atomic.make v }

  let get t =
    maybe_pause t.alabel;
    let v = Atomic.get t.a in
    record A_read t.aid t.alabel;
    v

  let set t v =
    maybe_pause t.alabel;
    record A_write t.aid t.alabel;
    Atomic.set t.a v

  let compare_and_set t old now =
    maybe_pause t.alabel;
    record A_write t.aid t.alabel;
    Atomic.compare_and_set t.a old now

  let fetch_and_add t n =
    maybe_pause t.alabel;
    record A_write t.aid t.alabel;
    Atomic.fetch_and_add t.a n

  let incr t = ignore (fetch_and_add t 1)
end

(* ------------------------------------------------------------------ *)
(* tracked plain variables                                             *)

module Var = struct
  type 'a t = { vid : int; vlabel : string; mutable v : 'a }

  let make label v = { vid = fresh (); vlabel = label; v }

  let get t =
    maybe_pause t.vlabel;
    let v = t.v in
    record V_read t.vid t.vlabel;
    v

  let set t v =
    maybe_pause t.vlabel;
    record V_write t.vid t.vlabel;
    t.v <- v

  let touch t = set t ()
  let observe t = ignore (get t)
end

(* ------------------------------------------------------------------ *)
(* instrumented spawn/join                                             *)

type thread_handle = {
  t_token : int;
  t_label : string;
  th : Thread.t;
  t_exn : exn option ref;
      (* written by the child before its End event, read by the parent
         after Join: ordered by the join itself *)
}

let spawn label f =
  let token = fresh () in
  let exn = ref None in
  record Spawn token label;
  let th =
    Thread.create
      (fun () ->
        record Begin token label;
        (try f () with e -> exn := Some e);
        record End token label)
      ()
  in
  { t_token = token; t_label = label; th; t_exn = exn }

let join h =
  Thread.join h.th;
  record Join h.t_token h.t_label;
  match !(h.t_exn) with Some e -> raise e | None -> ()

type 'a domain_handle = { d_token : int; d_label : string; d : 'a Domain.t }

let spawn_domain label f =
  let token = fresh () in
  record Spawn token label;
  let d =
    Domain.spawn (fun () ->
        record Begin token label;
        Fun.protect ~finally:(fun () -> record End token label) f)
  in
  { d_token = token; d_label = label; d }

let join_domain h =
  let r = Domain.join h.d in
  record Join h.d_token h.d_label;
  r
