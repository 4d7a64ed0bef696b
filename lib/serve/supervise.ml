module Checkpoint = Lcp_engine.Checkpoint

type status = Exit of int | Signal of int

type event =
  | Tick of float
  | Exited of { shard : int; status : status; ck : Checkpoint.t option }
  | Observed of { shard : int; ck : Checkpoint.t option }

type action =
  | Spawn of { shard : int; attempt : int; preempt : bool }
  | Kill of { shard : int; reason : string }
  | Abort of string
  | Merge of Checkpoint.t list

type phase =
  | Pending of { not_before : float }
  | Running of { beat : float }
  | Done of { at : float }

type shard = {
  phase : phase;
  attempts : int;
  first_start : float;
  seen : Checkpoint.t option;
}

type t = {
  workers : int;
  stall_s : float;
  max_restarts : int;
  inject_kill : int option;
  now : float;
  shards : shard array;
  restarts : int;
  injected : bool;
  over : bool;
}

let init ~shards ~workers ~stall_s ~max_restarts ~inject_kill =
  let pending = Pending { not_before = 0. } in
  let shard = { phase = pending; attempts = 0; first_start = 0.; seen = None } in
  let shards = Array.make shards shard in
  { workers; stall_s; max_restarts; inject_kill; now = 0.; shards;
    restarts = 0; injected = false; over = false }

let shards t = t.shards
let restarts t = t.restarts

let describe = function
  | Exit code -> Printf.sprintf "worker exited %d" code
  | Signal s -> Printf.sprintf "worker killed by signal %d" s

let set t i s =
  let shards = Array.copy t.shards in
  shards.(i) <- s;
  { t with shards }

let is_running s = match s.phase with Running _ -> true | _ -> false

let abort t reason =
  let kill i s =
    if is_running s then [ Kill { shard = i; reason = "run aborted" } ] else []
  in
  let kills = List.concat (List.mapi kill (Array.to_list t.shards)) in
  ({ t with over = true }, kills @ [ Abort reason ])

let exited t i status ck =
  let s = { (t.shards.(i)) with seen = ck } in
  match ck with
  | Some { Checkpoint.complete = true; _ } ->
      (set t i { s with phase = Done { at = t.now } }, [])
  | _ ->
      (* attempt k >= 2 waits 0.25 s * 2^(k-2), capped at 8 s *)
      let wait = Float.min 8. (0.25 *. (2. ** float_of_int (s.attempts - 1))) in
      let phase = Pending { not_before = t.now +. wait } in
      let t = set t i { s with phase } in
      if status = Exit 2 then
        abort t (Printf.sprintf "shard %d: worker exited 2 (usage error)" i)
      else if s.attempts > t.max_restarts then
        abort t
          (Printf.sprintf "shard %d failed %d times, giving up (last: %s)" i
             s.attempts (describe status))
      else ({ t with restarts = t.restarts + 1 }, [])

let observed t i ck =
  let s = t.shards.(i) in
  match s.phase with
  | Running { beat } ->
      (* a heartbeat is a change of (completed, saved_at) *)
      let progress = Option.map (fun c -> (c.Checkpoint.completed, c.saved_at)) in
      let beat = if progress ck <> progress s.seen then t.now else beat in
      let t = set t i { s with phase = Running { beat }; seen = ck } in
      let kill reason = [ Kill { shard = i; reason } ] in
      let inject = t.inject_kill = Some i && s.attempts = 1 && ck <> None in
      if inject && not t.injected then
        ({ t with injected = true }, kill "injected fault")
      else if t.now -. beat > t.stall_s then
        (t, kill (Printf.sprintf "stalled %.2fs" (t.now -. beat)))
      else (t, [])
  | Pending _ | Done _ -> (set t i { s with seen = ck }, [])

(* Fill free slots with due pending shards in shard order, or merge
   once every shard is done. *)
let schedule t =
  let running =
    Array.fold_left (fun n s -> n + Bool.to_int (is_running s)) 0 t.shards
  in
  let free = ref (t.workers - running) and spawns = ref [] in
  let launch i s =
    match s.phase with
    | Pending { not_before } when !free > 0 && not_before <= t.now ->
        decr free;
        let attempt = s.attempts + 1 in
        let preempt = t.inject_kill = Some i && attempt = 1 in
        spawns := Spawn { shard = i; attempt; preempt } :: !spawns;
        let first_start = if attempt = 1 then t.now else s.first_start in
        let phase = Running { beat = t.now } in
        { s with phase; attempts = attempt; first_start }
    | _ -> s
  in
  let shards = Array.mapi launch t.shards in
  let is_done s = match s.phase with Done _ -> true | _ -> false in
  if Array.for_all is_done shards then
    let cks = List.filter_map (fun s -> s.seen) (Array.to_list shards) in
    ({ t with shards; over = true }, [ Merge cks ])
  else ({ t with shards }, List.rev !spawns)

let step t ev =
  let t, acts =
    match ev with
    | _ when t.over -> (t, [])
    | Tick now -> ({ t with now }, [])
    | Exited { shard; status; ck } -> exited t shard status ck
    | Observed { shard; ck } -> observed t shard ck
  in
  if t.over then (t, acts)
  else
    let t, more = schedule t in
    (t, acts @ more)
