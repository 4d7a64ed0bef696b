open Lcp_local
open Lcp

type verdicts = Tables | Direct

let direct =
  {
    Prover.with_accepts =
      (fun dec ~alphabet:_ inst k ->
        (* the view snapshots the labels, so the search's shared
           partial array needs no copy *)
        k (fun lab u ->
            dec.Decoder.accepts
              (View.extract (Instance.with_labels inst lab)
                 ~r:dec.Decoder.radius u)));
  }

let source ?cfg = function Tables -> Prover.tables ?cfg () | Direct -> direct
let quotient q = if q then Prover.orbit_group else fun _ _ -> None

let search_accepted ?cfg ~verdicts ~quotient:q dec ~alphabet inst =
  Prover.search_with ?cfg ~source:(source ?cfg verdicts) ~quotient:(quotient q)
    dec ~alphabet inst

let strong_soundness_exhaustive ?cfg ~verdicts ~quotient:q suite ~k instances =
  Checker.strong_soundness_with ?cfg ~source:(source ?cfg verdicts)
    ~quotient:(quotient q) suite ~k instances

let soundness_sweep ?cfg ~verdicts ~quotient:q suite ~n =
  Checker.soundness_sweep_with ?cfg ~source:(source ?cfg verdicts)
    ~quotient:(quotient q) suite ~n

let count_accepted dec ~alphabet (inst : Instance.t) =
  let k = ref 0 in
  Labeling.iter_all ~alphabet inst.Instance.graph (fun lab ->
      if Decoder.accepts_all dec (Instance.with_labels inst lab) then incr k);
  !k
