type t = (int * int) array array

let make auto ~order =
  let n = Lcp_engine.Auto.order auto in
  let pos = Array.make (max n 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let program p =
    let moved = ref [] in
    for s = n - 1 downto 0 do
      let e = pos.(p.(order.(s))) in
      if e <> s then moved := (s, e) :: !moved
    done;
    match !moved with [] -> None | l -> Some (Array.of_list l)
  in
  let activation prog =
    let s, e = prog.(0) in
    max s e
  in
  List.filter_map program (Array.to_list (Lcp_engine.Auto.perms auto))
  |> List.stable_sort (fun a b -> compare (activation a) (activation b))
  |> Array.of_list

(* walk one program: all pairs equal so far, then the first decided
   pair comparing greater *)
let walk prog ~order rk i =
  let m = Array.length prog in
  let rec go j =
    j < m
    &&
    let s, e = prog.(j) in
    s <= i && e <= i
    &&
    let a = rk.(order.(s)) and b = rk.(order.(e)) in
    a > b || (a = b && go (j + 1))
  in
  go 0

let cuts progs ~order rk i =
  let np = Array.length progs in
  let rec scan k =
    k < np
    &&
    let s, e = progs.(k).(0) in
    max s e <= i && (walk progs.(k) ~order rk i || scan (k + 1))
  in
  scan 0
