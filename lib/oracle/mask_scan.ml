open Lcp_engine
module R = Lcp_obs.Run_cfg

type t = { n : int; lo : int; hi : int }

let space n =
  let m = Chunk.slots n in
  if m > 30 then invalid_arg "Mask_scan.space: order too large";
  1 lsl m

let plan ?(chunk_bits = 12) n =
  if chunk_bits < 0 then invalid_arg "Mask_scan.plan: negative chunk_bits";
  let total = space n in
  let step = 1 lsl chunk_bits in
  let rec go lo acc =
    if lo >= total then List.rev acc
    else go (lo + step) ({ n; lo; hi = min total (lo + step) } :: acc)
  in
  go 0 []

let iter c f =
  for mask = c.lo to c.hi - 1 do
    f mask
  done

(* Each chunk dedups locally (canonical mask -> smallest edge mask);
   the sequential merge keeps the smallest mask per class, so the
   result is independent of chunk scheduling and of [jobs]. *)
let iso_classes ?(cfg = R.default) ?(connected = true) n =
  let chunk_bits = max 12 (Chunk.slots n - 6) in
  let chunks = Array.of_list (plan ~chunk_bits n) in
  let per_chunk =
    Pool.run ~metrics:cfg.R.metrics ~jobs:cfg.R.jobs (Array.length chunks)
      (fun ci ->
        let c = chunks.(ci) in
        let tbl : (int, int) Hashtbl.t = Hashtbl.create 512 in
        let scanned = ref 0 and conn = ref 0 in
        iter c (fun mask ->
            incr scanned;
            let adj = Chunk.adj_of_mask n mask in
            if (not connected) || Chunk.is_connected_adj adj then begin
              incr conn;
              let key = Canon.canonical_mask ~n adj in
              match Hashtbl.find_opt tbl key with
              | Some m when m <= mask -> ()
              | _ -> Hashtbl.replace tbl key mask
            end);
        (!scanned, !conn, tbl))
  in
  let global : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let scanned = ref 0 and conn = ref 0 in
  Array.iter
    (fun (s, c, tbl) ->
      scanned := !scanned + s;
      conn := !conn + c;
      Hashtbl.iter
        (fun key mask ->
          match Hashtbl.find_opt global key with
          | Some m when m <= mask -> ()
          | _ -> Hashtbl.replace global key mask)
        tbl)
    per_chunk;
  let masks =
    Hashtbl.fold (fun _ mask acc -> mask :: acc) global []
    |> List.sort Stdlib.compare
  in
  let classes = List.length masks in
  R.count cfg ~by:!scanned "candidates_generated";
  R.count cfg ~by:!conn "connected";
  R.count cfg ~by:classes "classes";
  R.count cfg ~by:(!conn - classes) "dedup_hits";
  List.map (Chunk.graph_of_mask n) masks
