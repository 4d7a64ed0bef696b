open Lcp_local

type item = { inst : Instance.t; honest : bool }

let default_max_n = 4
let default_samples = 6

let build ?(max_n = default_max_n) ?(samples = default_samples) ~rng
    (suite : Lcp.Decoder.suite) =
  let items = ref [] in
  for n = 1 to max_n do
    List.iter
      (fun g ->
        let base = Instance.make g in
        (match Lcp.Decoder.certify suite base with
        | Some certified -> items := { inst = certified; honest = true } :: !items
        | None -> ());
        let alphabet = suite.Lcp.Decoder.adversary_alphabet base in
        for _ = 1 to samples do
          let labels = Labeling.random rng ~alphabet g in
          items := { inst = Instance.with_labels base labels; honest = false } :: !items
        done)
      (Lcp_engine.Sweep.iso_classes n)
  done;
  List.rev !items
