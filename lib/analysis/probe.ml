open Lcp_local

type eval = {
  verdict : bool;
  max_depth : int;
  id_reads : int;
  port_reads : int;
  label_bits : int;
}

type measurement = {
  verdicts : bool array;
  observed_radius : int;
  id_reads : int;
  port_reads : int;
  max_label_bits : int;
}

let summarize ~verdict events =
  let max_depth = ref (-1) in
  let id_reads = ref 0 in
  let port_reads = ref 0 in
  (* certificate bits are charged once per ball node, at the largest
     size seen there (derived views share the parent's node indexing,
     so the same certificate re-read through [map_labels] or a
     sub-decoder does not double-bill) *)
  let label_tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : View.Trace.event) ->
      if e.View.Trace.dist > !max_depth then max_depth := e.View.Trace.dist;
      match e.View.Trace.field with
      | View.Trace.Id -> incr id_reads
      | View.Trace.Port -> incr port_reads
      | View.Trace.Structure -> ()
      | View.Trace.Label ->
          let prev =
            Option.value (Hashtbl.find_opt label_tbl e.View.Trace.node) ~default:0
          in
          if e.View.Trace.bits > prev then
            Hashtbl.replace label_tbl e.View.Trace.node e.View.Trace.bits)
    events;
  let label_bits = Hashtbl.fold (fun _ bits acc -> acc + bits) label_tbl 0 in
  {
    verdict;
    max_depth = !max_depth;
    id_reads = !id_reads;
    port_reads = !port_reads;
    label_bits;
  }

let eval_node (dec : Lcp.Decoder.t) inst v =
  let view = View.extract inst ~r:dec.Lcp.Decoder.radius v in
  let verdict, events =
    View.Trace.record (fun () -> dec.Lcp.Decoder.accepts view)
  in
  summarize ~verdict events

let measure dec inst =
  let evals = Array.init (Instance.order inst) (eval_node dec inst) in
  {
    verdicts = Array.map (fun (e : eval) -> e.verdict) evals;
    observed_radius =
      Array.fold_left (fun acc (e : eval) -> max acc e.max_depth) (-1) evals;
    id_reads = Array.fold_left (fun acc (e : eval) -> acc + e.id_reads) 0 evals;
    port_reads =
      Array.fold_left (fun acc (e : eval) -> acc + e.port_reads) 0 evals;
    max_label_bits =
      Array.fold_left (fun acc (e : eval) -> max acc e.label_bits) 0 evals;
  }
