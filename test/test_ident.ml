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

let test_rank_in () =
  let ids = Ident.of_array [| 5; 2; 9; 7 |] in
  check_int "rank of node 0 among all" 1 (Ident.rank_in ids [ 0; 1; 2; 3 ] 0);
  check_int "rank of node 2 among all" 3 (Ident.rank_in ids [ 0; 1; 2; 3 ] 2);
  check_int "rank within subset" 0 (Ident.rank_in ids [ 0; 2 ] 0)

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
    let g = Random_graphs.gnp rng n ~p:0.2 in
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
    case "lookup" test_lookup;
    case "order-preserving remap" test_order_preserving_remap;
    case "enumerate" test_enumerate;
    case "rank_in" test_rank_in;
    case "validate = Hashtbl oracle" test_validate_differential;
  ]
