(* The metric names every workload reports in the result line.

   End-to-end metrics are the ones defined on all five workloads; the
   workload-specific ones (daemon latency percentiles, cold pass,
   failure fraction) are printed and written to the rows document but
   not listed here.

   Per-layer metrics in the result line are the traced wall and its
   split over the repository's layers: the share of the traced wall
   each layer accounts for, measured from outside by the workload's
   traced pass. A layer a workload never reaches has share 0, and
   [unattributed.frac] is what no named layer explains. *)

open Common

let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB") ]

(* Layer → the modules whose public entry points the traced passes
   time for it (documented in README.md). *)
let layers =
  [
    "orderly";  (* Sweep.iso_classes: Orderly + Canon *)
    "search";  (* Prover.search_accepted, minus auto and eval_cache *)
    "auto";  (* Auto.of_graph *)
    "eval_cache";  (* Eval_cache.create *)
    "pool";  (* Pool: domains idle or scheduling *)
    "coordinator";  (* Coordinator supervision beyond the raw shard runs *)
    "proc";  (* fork, exec and reap of shard workers *)
    "checkpoint";  (* Checkpoint.save *)
    "session";  (* Session.execute *)
    "serve";  (* socket, Protocol codec, Jobq and thread hand-off *)
    "graph";  (* Builders.double_cover, Coloring *)
    "instance";  (* Instance.make: ports and identifiers *)
    "prover";  (* the decoder's honest prover *)
    "view";  (* View.extract and decoding in the sampling phases *)
  ]

let per_layer =
  ("trace.wall_s", "s")
  :: List.map (fun l -> (l ^ ".frac", "ratio")) layers
  @ [ ("unattributed.frac", "ratio") ]

(* Share rows for a traced wall split into [(layer, seconds)] parts. *)
let shares ~wall parts =
  List.iter
    (fun (l, _) -> if not (List.mem l layers) then invalid_arg ("unknown layer " ^ l))
    parts;
  let part l = List.fold_left (fun a (k, s) -> if k = l then a +. s else a) 0. parts in
  one "trace.wall_s" "s" wall
  :: List.map (fun l -> one (l ^ ".frac") "ratio" (safe_div (part l) wall)) layers
  @ [
      one "unattributed.frac" "ratio"
        (safe_div (wall -. sum (List.map snd parts)) wall);
    ]
