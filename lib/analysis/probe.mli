(** Traced decoder evaluation: run an [accepts] function under the
    {!Lcp_local.View.Trace} recorder and condense the access stream
    into per-evaluation resource facts — the raw material for the
    radius and certificate-taint passes.

    Evaluations happen exactly as in {!Lcp.Decoder.run} (the view is
    extracted at the decoder's own radius), so the verdicts here are
    the production verdicts; tracing only adds observation. *)

open Lcp_local

type measurement = {
  verdicts : bool array;  (** node-indexed, identical to [Decoder.run] *)
  observed_radius : int;  (** max of [max_depth] over all evaluations *)
  id_reads : int;  (** summed over evaluations *)
  port_reads : int;
  max_label_bits : int;
      (** the largest certificate budget any single evaluation consumed
          — compared against the suite's declared [cert_bits] as the
          taint/tightness metric *)
}

val measure : Lcp.Decoder.t -> Instance.t -> measurement
(** Trace every node and aggregate the per-evaluation facts. *)
