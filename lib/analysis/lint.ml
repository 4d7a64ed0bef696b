open Lcp
module Run_cfg = Lcp_obs.Run_cfg

let schema_version = 1

type decoder_report = {
  key : string;
  contract : Decoder.contract;
  view_radius : int;
  evals : int;
  observed_radius : int;
  id_reads : int;
  port_reads : int;
  cert_bits_declared : int;
  cert_bits_read : int;
  findings : Finding.t list;
}

type report = {
  max_n : int;
  samples : int;
  decoders : decoder_report list;
}

let lint_entry ~cfg ~max_n ~samples (e : Registry.entry) =
  let key = e.Registry.key in
  let suite = e.Registry.suite in
  let dec = suite.Decoder.dec in
  let contract = e.Registry.contract in
  Run_cfg.progress cfg (Printf.sprintf "lint: %s" key);
  (* nested under the driver's [lint] span, so the full path in the
     metrics document is [lint/<key>] *)
  Run_cfg.span cfg key (fun () ->
      (* one stream drives corpus sampling and the invariance redraws;
         both consume it identically on every run, so the whole entry is
         a function of (seed, max_n, samples) — never of jobs *)
      let rng = Run_cfg.rng cfg in
      let corpus = Corpus.build ~max_n ~samples ~rng suite in
      let evals = ref 0 in
      let observed_radius = ref (-1) in
      let id_reads = ref 0 in
      let port_reads = ref 0 in
      let cert_read = ref 0 in
      let cert_declared = ref 0 in
      List.iter
        (fun (it : Corpus.item) ->
          let m = Probe.measure dec it.Corpus.inst in
          evals := !evals + Array.length m.Probe.verdicts;
          observed_radius := max !observed_radius m.Probe.observed_radius;
          id_reads := !id_reads + m.Probe.id_reads;
          port_reads := !port_reads + m.Probe.port_reads;
          cert_read := max !cert_read m.Probe.max_label_bits;
          cert_declared :=
            max !cert_declared (suite.Decoder.cert_bits it.Corpus.inst))
        corpus;
      let trace_findings =
        List.concat
          [
            (if !observed_radius > contract.Decoder.declared_radius then
               [
                 Finding.make Finding.Radius_violation ~decoder:key
                   (Printf.sprintf
                      "data read at depth %d exceeds the declared radius %d"
                      !observed_radius contract.Decoder.declared_radius);
               ]
             else []);
            (if contract.Decoder.declared_anonymous && !id_reads > 0 then
               [
                 Finding.make Finding.Id_taint ~decoder:key
                   (Printf.sprintf
                      "contract claims anonymity but %d identifier reads were \
                       traced"
                      !id_reads);
               ]
             else []);
          ]
      in
      let id_findings =
        if contract.Decoder.declared_anonymous then
          Invariance.check_ids ~samples ~rng ~decoder:key dec corpus
        else []
      in
      let port_findings =
        if contract.Decoder.declared_port_invariant then
          Invariance.check_ports ~samples ~rng ~decoder:key dec corpus
        else []
      in
      let det_findings =
        Determinism.check ~jobs:cfg.Run_cfg.jobs ~decoder:key dec corpus
      in
      let findings =
        trace_findings @ id_findings @ port_findings @ det_findings
      in
      Run_cfg.count cfg ~by:!evals "lint/evals";
      Run_cfg.count cfg ~by:(List.length findings) "lint/findings";
      Run_cfg.count cfg
        ~by:(List.length (List.filter Finding.is_violation findings))
        "lint/violations";
      {
        key;
        contract;
        view_radius = dec.Decoder.radius;
        evals = !evals;
        observed_radius = !observed_radius;
        id_reads = !id_reads;
        port_reads = !port_reads;
        cert_bits_declared = !cert_declared;
        cert_bits_read = !cert_read;
        findings;
      })

let run ?(cfg = Run_cfg.default) ?(max_n = Corpus.default_max_n)
    ?(samples = Corpus.default_samples) entries =
  Run_cfg.span cfg "lint" (fun () ->
      let sorted =
        List.sort
          (fun (a : Registry.entry) b ->
            String.compare a.Registry.key b.Registry.key)
          entries
      in
      {
        max_n;
        samples;
        decoders = List.map (lint_entry ~cfg ~max_n ~samples) sorted;
      })

let findings r = List.concat_map (fun d -> d.findings) r.decoders
let violations r = List.filter Finding.is_violation (findings r)

let decoder_report_to_json d =
  let open Lcp_obs.Json in
  Obj
    [
      ("decoder", String d.key);
      ( "contract",
        Obj
          [
            ("radius", Int d.contract.Decoder.declared_radius);
            ("anonymous", Bool d.contract.Decoder.declared_anonymous);
            ("port_invariant", Bool d.contract.Decoder.declared_port_invariant);
          ] );
      ("view_radius", Int d.view_radius);
      ("evals", Int d.evals);
      ("observed_radius", Int d.observed_radius);
      ("id_reads", Int d.id_reads);
      ("port_reads", Int d.port_reads);
      ( "cert_bits",
        Obj
          [
            ("declared", Int d.cert_bits_declared);
            ("read_max", Int d.cert_bits_read);
          ] );
      ("findings", List (List.map Finding.to_json d.findings));
    ]

let report_to_json r =
  let open Lcp_obs.Json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("tool", String "lcp lint");
      ("max_n", Int r.max_n);
      ("samples", Int r.samples);
      ("decoders", List (List.map decoder_report_to_json r.decoders));
    ]
