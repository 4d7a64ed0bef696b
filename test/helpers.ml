(* Shared fixtures and testables for the suites. *)

open Lcp_graph
open Lcp_local

let rng () = Random.State.make [| 987654321 |]

let graph_testable =
  Alcotest.testable (fun ppf g -> Graph.pp ppf g) Graph.equal

let int_list = Alcotest.(list int)

let check_graph = Alcotest.check graph_testable
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let view_testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (View.to_dot v)) View.equal

let p4 () = Builders.path 4
let c4 () = Builders.cycle 4
let c5 () = Builders.cycle 5
let c6 () = Builders.cycle 6
let k4 () = Builders.complete 4

let inst g = Instance.make g

(* Ports and ids consistent with the graph ([Instance.make]'s check). *)
let instance_valid (i : Instance.t) =
  Port.is_valid i.Instance.graph i.Instance.ports
  && Ident.is_valid i.Instance.graph i.Instance.ids

let graph_to_string g = Format.asprintf "%a" Graph.pp g

(* K_{a,b}: nodes [0, a) on one side, [a, a + b) on the other. *)
let complete_bipartite a b =
  Graph.of_edges (a + b)
    (List.concat_map (fun u -> List.init b (fun j -> (u, a + j))) (List.init a Fun.id))

(* Seeded random graphs through the model grammar [lcp sample] parses:
   G(n, p) by skip sampling, its average degree [p (n - 1)] printed
   exactly, and the random attachment tree. *)
let gnp rng n ~p =
  Result.get_ok
    (Random_graphs.of_model rng ~nodes:n
       (Printf.sprintf "gnp:%.17g" (p *. float_of_int (max 0 (n - 1)))))

let random_tree rng n = Result.get_ok (Random_graphs.of_model rng ~nodes:n "tree")

let certify_exn suite g =
  match Lcp.Decoder.certify suite (inst g) with
  | Some i -> i
  | None -> Alcotest.fail "honest prover failed unexpectedly"

(* The number of labelings over [alphabet] that every node accepts,
   counted through the production enumerator. *)
let count_accepted dec ~alphabet inst =
  let k = ref 0 in
  Lcp.Prover.iter_accepted dec ~alphabet inst (fun _ -> incr k);
  !k

(* A registry's gauge and span, read back from its JSON rendering: a
   span is [(entries, wall_ns)]. *)
let metrics_member section name m =
  Result.to_option
    (Result.bind
       (Lcp_obs.Json.member section (Lcp_obs.Metrics.to_json m))
       (Lcp_obs.Json.member name))

let metrics_gauge m name =
  Option.bind (metrics_member "gauges" name m) (fun v ->
      Result.to_option (Lcp_obs.Json.to_int v))

let metrics_span m path =
  Option.bind (metrics_member "spans" path m) (fun s ->
      let int k = Result.bind (Lcp_obs.Json.member k s) Lcp_obs.Json.to_int in
      match (int "entries", int "wall_ns") with
      | Ok e, Ok w -> Some (e, w)
      | _ -> None)

(* The built lcp binary: the test executable lives in
   _build/default/test/ next to _build/default/bin/main.exe. *)
let lcp_bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"

let slurp path = In_channel.with_open_bin path In_channel.input_all

(* Run [lcp args...] to completion: (exit code, stdout, stderr). *)
let run_lcp args =
  let out = Filename.temp_file "lcp-test-run" ".out"
  and err = Filename.temp_file "lcp-test-run" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; err ])
  @@ fun () ->
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let stdin = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let o = fd out and e = fd err in
  let pid = Unix.create_process lcp_bin (Array.of_list (lcp_bin :: args)) stdin o e in
  List.iter Unix.close [ stdin; o; e ];
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (code, slurp out, slurp err)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
