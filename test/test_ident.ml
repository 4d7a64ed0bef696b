open Lcp_graph
open Lcp_local
open Helpers

let test_canonical () =
  let g = Builders.path 4 in
  let ids = Ident.canonical g in
  Alcotest.(check int_list) "1..n" [ 1; 2; 3; 4 ] (Array.to_list ids.Ident.ids);
  check_int "bound" 4 ids.Ident.bound;
  check_bool "valid" true (Ident.is_valid g ids)

let test_of_array_validation () =
  (try
     ignore (Ident.of_array [| 1; 1 |]);
     Alcotest.fail "expected duplicate failure"
   with Invalid_argument _ -> ());
  (try
     ignore (Ident.of_array ~bound:2 [| 1; 3 |]);
     Alcotest.fail "expected range failure"
   with Invalid_argument _ -> ());
  (try
     ignore (Ident.of_array [| 0; 1 |]);
     Alcotest.fail "ids start at 1"
   with Invalid_argument _ -> ())

let test_random () =
  let g = Builders.grid 3 3 in
  let ids = Ident.random (rng ()) ~bound:81 g in
  check_bool "valid" true (Ident.is_valid g ids);
  check_int "bound kept" 81 ids.Ident.bound

(* Seeded draws are pinned: a seed, bound and graph keep drawing the
   same ids. *)
let test_random_pinned () =
  let draw seed bound g =
    Array.to_list (Ident.random (Random.State.make [| seed |]) ~bound g).Ident.ids
  in
  Alcotest.(check int_list) "path 6, bound 20, seed 1" [ 15; 19; 13; 7; 17; 20 ]
    (draw 1 20 (Builders.path 6));
  Alcotest.(check int_list) "grid 3x3, bound 81"
    [ 71; 26; 75; 80; 74; 7; 9; 46; 40 ]
    (draw 987654321 81 (Builders.grid 3 3));
  Alcotest.(check int_list) "cycle 5, bound 5, seed 7" [ 1; 5; 2; 3; 4 ]
    (draw 7 5 (Builders.cycle 5));
  Alcotest.(check int_list) "path 10, bound 100, seed 42"
    [ 65; 57; 52; 6; 68; 77; 91; 24; 51; 98 ]
    (draw 42 100 (Builders.path 10));
  let i = Instance.random (Random.State.make [| 3 |]) (Builders.cycle 8) in
  Alcotest.(check int_list) "Instance.random, cycle 8, seed 3, bound n^2"
    [ 64; 2; 54; 52; 16; 3; 1; 51 ]
    (Array.to_list i.Instance.ids.Ident.ids)

(* The default bound n^2 is 6.25e10 here: past Random.State.int's 2^30
   and far too large to materialize. *)
let test_random_large_bound () =
  let n = 250_000 in
  let i = Instance.random (Random.State.make [| 5 |]) (Graph.empty n) in
  let ids = i.Instance.ids in
  check_int "bound n^2" (n * n) ids.Ident.bound;
  let sorted = Array.copy ids.Ident.ids in
  Array.sort compare sorted;
  check_int "n ids" n (Array.length sorted);
  check_bool "in [1, bound]" true (sorted.(0) >= 1 && sorted.(n - 1) <= n * n);
  check_bool "distinct" true
    (Array.for_all Fun.id (Array.init (n - 1) (fun k -> sorted.(k) < sorted.(k + 1))))

let test_lookup () =
  let ids = Ident.of_array [| 5; 2; 9 |] in
  check_int "id" 2 (Ident.id ids 1);
  Alcotest.(check (option int)) "inverse" (Some 2) (Ident.node_of_id ids 9);
  Alcotest.(check (option int)) "missing" None (Ident.node_of_id ids 7)

let test_order_preserving_remap () =
  let ids = Ident.of_array [| 5; 2; 9 |] in
  let remapped = Ident.order_preserving_remap ids ~target:[ 10; 30; 20 ] in
  (* ranks: node1 (id 2) smallest -> 10; node0 (5) -> 20; node2 (9) -> 30 *)
  Alcotest.(check int_list) "remapped" [ 20; 10; 30 ]
    (Array.to_list remapped.Ident.ids);
  (try
     ignore (Ident.order_preserving_remap ids ~target:[ 1; 2 ]);
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ())

let test_enumerate () =
  let g = Builders.path 2 in
  let all = Ident.enumerate ~bound:3 g in
  check_int "3*2 injections" 6 (List.length all);
  check_bool "all valid" true (List.for_all (Ident.is_valid g) all)

(* Differential check against the Hashtbl oracle (Validate_ref): the
   same id arrays raise in both, or in neither. Seeded random graphs,
   n = 0..30, valid assignments and their mutants. *)
let test_validate_differential () =
  let rng = Random.State.make [| 78 |] in
  let checked = ref 0 in
  let agree what g ids bound =
    incr checked;
    let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
    let want = raises (fun () -> Validate_ref.ident_validate ids bound) in
    check_bool what want (raises (fun () -> ignore (Ident.of_array ~bound ids)));
    check_bool (what ^ ", is_valid") (Array.length ids = Graph.order g && not want)
      (Ident.is_valid g { Ident.ids; bound })
  in
  for n = 0 to 30 do
    let g = gnp rng n ~p:0.2 in
    List.iter
      (fun bound ->
        let ids = (Ident.random rng ~bound g).Ident.ids in
        agree "random" g ids bound;
        (* strictly ascending ids take the no-sort path *)
        let sorted = Array.copy ids in
        Array.sort compare sorted;
        agree "ascending" g sorted bound;
        if n >= 2 then begin
          let i = Random.State.int rng (n - 1) in
          let a = Array.copy sorted in
          a.(i + 1) <- a.(i);
          agree "ascending with a repeat" g a bound
        end;
        let replace i x =
          let a = Array.copy ids in
          a.(i) <- x;
          a
        in
        if n >= 1 then begin
          let i = Random.State.int rng n in
          agree "id 0" g (replace i 0) bound;
          agree "id bound + 1" g (replace i (bound + 1)) bound;
          agree "bound < n" g ids (n - 1);
          agree "max id as bound" g ids (Array.fold_left max 1 ids)
        end;
        if n >= 2 then begin
          let i = Random.State.int rng n in
          let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
          agree "duplicate id" g (replace j ids.(i)) bound;
          agree "duplicate and out of range" g
            (let a = replace j ids.(i) in
             a.(i) <- bound + 1;
             a)
            bound
        end;
        agree "one id too many" g (Array.append ids [| bound + 1 |]) (bound + 1);
        agree "one id missing" g (Array.sub ids 0 (max 0 (n - 1))) bound)
      [ max n 1; n + 3; (n * n) + 1 ]
  done;
  check_bool "differential cases ran" true (!checked > 500)

let suite =
  [
    case "canonical" test_canonical;
    case "of_array validation" test_of_array_validation;
    case "random" test_random;
    case "random ids pinned on seeded cases" test_random_pinned;
    case "random at n = 250,000 with bound n^2" test_random_large_bound;
    case "lookup" test_lookup;
    case "order-preserving remap" test_order_preserving_remap;
    case "enumerate" test_enumerate;
    case "validate = Hashtbl oracle" test_validate_differential;
  ]
