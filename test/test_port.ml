open Lcp_graph
open Lcp_local
open Helpers

let test_canonical_valid () =
  let g = Builders.grid 3 3 in
  let p = Port.canonical g in
  check_bool "valid" true (Port.is_valid g p)

let test_random_valid () =
  let g = Builders.petersen () in
  let p = Port.random (rng ()) g in
  check_bool "valid" true (Port.is_valid g p)

let test_roundtrip () =
  let g = Builders.star 3 in
  let p = Port.canonical g in
  for q = 1 to 3 do
    let w = Port.neighbor_at p 0 q in
    check_int "roundtrip" q (Port.port_of p 0 w)
  done

let test_port_of_missing () =
  let g = Builders.path 3 in
  let p = Port.canonical g in
  (try
     ignore (Port.port_of p 0 2);
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_neighbor_at_range () =
  let g = Builders.path 3 in
  let p = Port.canonical g in
  (try
     ignore (Port.neighbor_at p 0 2);
     Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ())

let test_is_valid_rejects () =
  let g = Builders.path 3 in
  check_bool "wrong neighbor set" false (Port.is_valid g [| [| 2 |]; [| 0; 2 |]; [| 1 |] |]);
  check_bool "wrong length" false (Port.is_valid g [| [| 1 |] |])

let test_enumerate () =
  let g = Builders.path 3 in
  (* middle node has 2 orderings, leaves 1 each *)
  check_int "count" 2 (List.length (Port.enumerate g));
  check_int "count formula" 2 (Port.count g);
  check_bool "all valid" true (List.for_all (Port.is_valid g) (Port.enumerate g));
  let s = Builders.star 3 in
  check_int "star count" 6 (Port.count s);
  check_int "star enumerate" 6 (List.length (Port.enumerate s))

let test_enumerate_distinct () =
  let g = Builders.cycle 4 in
  let all = Port.enumerate g in
  check_int "2^4 assignments" 16 (List.length all);
  check_int "distinct" 16 (List.length (List.sort_uniq Stdlib.compare all))

(* Differential check against the sorting oracle (Validate_ref) on
   seeded random graphs, n = 0..30: valid numberings and, at every
   node, the mutants a bad numbering can take. *)
let test_is_valid_differential () =
  let rng = Random.State.make [| 77 |] in
  let checked = ref 0 in
  let agree what g t =
    incr checked;
    check_bool what (Validate_ref.port_is_valid g t) (Port.is_valid g t)
  in
  for n = 0 to 30 do
    List.iter
      (fun p ->
        let g = Random_graphs.gnp rng n ~p in
        let base = Port.random rng g in
        agree "canonical" g (Port.canonical g);
        agree "random" g base;
        let with_row v row =
          let t = Array.copy base in
          t.(v) <- row;
          t
        in
        let replace v i x =
          let row = Array.copy base.(v) in
          row.(i) <- x;
          with_row v row
        in
        for v = 0 to n - 1 do
          let row = base.(v) in
          let d = Array.length row in
          if d >= 1 then begin
            let i = Random.State.int rng d in
            (* a non-neighbor, possibly [v] itself *)
            let x = Random.State.int rng n in
            if not (Graph.mem_edge g v x) then agree "non-neighbor" g (replace v i x);
            agree "entry -1" g (replace v i (-1));
            agree "entry n" g (replace v i n);
            agree "short row" g (with_row v (Array.sub row 0 (d - 1)))
          end;
          if d >= 2 then agree "repeated entry" g (replace v 1 row.(0));
          agree "long row" g (with_row v (Array.append row [| v |]));
          if d >= 1 then agree "row repeats its last entry" g
              (with_row v (Array.append row [| row.(d - 1) |]))
        done;
        agree "one row missing" g (Array.sub base 0 (max 0 (n - 1)));
        agree "one row too many" g (Array.append base [| [||] |]))
      [ 0.; 0.1; 0.3; 0.7 ]
  done;
  check_bool "differential cases ran" true (!checked > 1000)

let suite =
  [
    case "canonical valid" test_canonical_valid;
    case "random valid" test_random_valid;
    case "port/neighbor roundtrip" test_roundtrip;
    case "port_of missing edge" test_port_of_missing;
    case "neighbor_at out of range" test_neighbor_at_range;
    case "is_valid rejects junk" test_is_valid_rejects;
    case "enumerate counts" test_enumerate;
    case "enumerate distinct" test_enumerate_distinct;
    case "is_valid = sorting oracle" test_is_valid_differential;
  ]
