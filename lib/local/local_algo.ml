type 'o t = {
  name : string;
  radius : int;
  run : View.t -> 'o;
}

let make ~name ~radius run = { name; radius; run }

let run_all t inst =
  Array.map t.run (View.extract_all inst ~r:t.radius)

let reidentify_random rng (inst : Instance.t) =
  let ids = Ident.random rng ~bound:inst.Instance.ids.Ident.bound inst.Instance.graph in
  Instance.with_ids inst ids

let reidentify_order_preserving rng (inst : Instance.t) =
  let n = Instance.order inst in
  let bound = max (4 * n) inst.Instance.ids.Ident.bound in
  (* choose n distinct targets in [1, bound], sorted; then remap *)
  let fresh = Ident.random rng ~bound inst.Instance.graph in
  let target = Array.to_list fresh.Ident.ids in
  Instance.with_ids inst (Ident.order_preserving_remap inst.Instance.ids ~target)

let same_outputs t inst inst' =
  run_all t inst = run_all t inst'

let is_anonymous_on t inst ~trials rng =
  let rec go k =
    k = 0 || (same_outputs t inst (reidentify_random rng inst) && go (k - 1))
  in
  go trials

let is_order_invariant_on t inst ~trials rng =
  let rec go k =
    k = 0 || (same_outputs t inst (reidentify_order_preserving rng inst) && go (k - 1))
  in
  go trials
