(* The sorting Port.is_valid and the Hashtbl-based Ident validation
   kept as test oracles: the implementations that preceded the
   linear-time ones in lib/local/port.ml and lib/local/ident.ml,
   verbatim apart from this header, the opens and the names. The
   differential tests in test_port.ml check both new versions against
   them, accept for accept and raise for raise. *)

open Lcp_graph

let port_is_valid g t =
  Array.length t = Graph.order g
  && Graph.fold_nodes
       (fun v ok ->
         ok
         &&
         let sorted = Array.copy t.(v) in
         Array.sort Stdlib.compare sorted;
         sorted = Graph.neighbors_array g v)
       g true

let ident_validate ids bound =
  let n = Array.length ids in
  let seen = Hashtbl.create n in
  Array.iter
    (fun i ->
      if i < 1 || i > bound then
        invalid_arg (Printf.sprintf "Ident: id %d out of range [1, %d]" i bound);
      if Hashtbl.mem seen i then
        invalid_arg (Printf.sprintf "Ident: duplicate id %d" i);
      Hashtbl.replace seen i ())
    ids
