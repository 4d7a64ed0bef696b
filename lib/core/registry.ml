type entry = {
  key : string;
  suite : Decoder.suite;
  contract : Decoder.contract;
}

let entry key suite = { key; suite; contract = Decoder.contract suite.Decoder.dec }

(* Port invariance is declared in each decoder module ([Decoder.make
   ~port_invariant:true]), only where the accepts function provably
   ignores port numbers: those decoders read neighbor certificates
   through [View.center_neighbors] but never branch on the port
   components. The cycle-structured decoders (even-cycle, edge-bit,
   watermelon) and the union wrapper that can delegate to one of them
   verify far-end ports by design and are exempt. The contract (and
   the orbit-pruned searches) derive the flag from the decoder record
   itself, so the declaration lives next to the accepts function it
   describes. *)
let all =
  [
    entry "trivial2" (D_trivial.suite ~k:2);
    entry "trivial3" (D_trivial.suite ~k:3);
    entry "spanning" D_spanning.suite;
    entry "degree-one" D_degree_one.suite;
    entry "even-cycle" D_even_cycle.suite;
    entry "union" D_union.suite;
    entry "shatter" D_shatter.suite;
    entry "watermelon" D_watermelon.suite;
    entry "hidden-leaf2" (D_hidden_leaf.suite ~k:2);
    entry "hidden-leaf3" (D_hidden_leaf.suite ~k:3);
    entry "edge-bit" D_edge_bit.suite;
  ]

let keys = List.map (fun e -> e.key) all
let find key = List.find_opt (fun e -> e.key = key) all
