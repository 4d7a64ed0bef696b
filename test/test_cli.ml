(* The lcp command line, driven as a user drives it: fork the built
   binary, read its exit code and output. The table pins the exit-code
   contract (0 ok, 1 violation or failure, 2 usage error) on argument
   edge cases, including the count flags that once ran an empty or
   negative-size job and reported PASS, or died on an uncaught
   exception. The other cases pin the one execution path: a local
   [lcp sweep] answers exactly what [Session.execute] answers for the
   same request, and [--compare] holds across widths. *)

open Helpers
module Json = Lcp_obs.Json
module Protocol = Lcp_serve.Protocol
module Session = Lcp_serve.Session

(* the test executable lives in _build/default/test/ next to
   _build/default/bin/main.exe *)
let lcp_bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"

let slurp path = In_channel.with_open_bin path In_channel.input_all

(* Run [lcp args...] to completion: (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "lcp-test-cli" ".out"
  and err = Filename.temp_file "lcp-test-cli" ".err" in
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

let socket = Filename.concat (Filename.get_temp_dir_name ()) "lcp-test-cli-serve.sock"

(* argv -> exit code. The count-flag rows each exited 0 with a quiet
   PASS, ran at a silently changed setting, or raised an uncaught
   Invalid_argument, before counts were checked at parse time; the
   --stall-s rows killed every worker on each poll, or never. *)
let table =
  [
    ([ "sample"; "--nodes"; "100"; "--trials=-1" ], 2);
    ([ "sample"; "--nodes"; "100"; "--eval-nodes=-5" ], 2);
    ([ "lint"; "--samples=-1" ], 2);
    ([ "lint"; "trivial2"; "--max-n"; "0" ], 2);
    ([ "race"; "--schedules=-1" ], 2);
    ([ "check"; "degree-one"; "cycle:5"; "--trials=-1" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--jobs=-3" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers=-1" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers"; "2"; "--inject-kill"; "7" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers"; "2"; "--stall-s=-1" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers"; "2"; "--stall-s=0" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers"; "2"; "--stall-s"; "nan" ], 2);
    ([ "serve"; "--socket"; socket; "--capacity=-1" ], 2);
    ([ "forgetful"; "cycle:6"; "--radius=-1" ], 2);
    (* the rest of the contract *)
    ([ "sweep"; "degree-one"; "-n"; "4"; "-j"; "1" ], 0);
    ([ "sweep"; "nosuch"; "-n"; "3" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "12" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "3"; "--strategy"; "bogus" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "5"; "--strategy"; "mask-scan" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "5"; "--strategy"; "orderly" ], 0);
    ([ "sweep"; "degree-one"; "-n"; "3"; "--shards"; "2"; "--shard"; "2" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "3"; "--resume" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "3"; "--max-chunks"; "1" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "3"; "--workers"; "2"; "--compare" ], 2);
    ([ "sweep"; "degree-one"; "-n"; "4"; "--workers"; "2"; "--remote"; "/tmp/x.sock" ], 2);
    ([ "lint"; "trivial2"; "--max-n"; "3"; "--samples"; "1" ], 0);
    ([ "lint"; "nosuch" ], 2);
    ([ "check"; "degree-one"; "nonsense:9" ], 2);
    ([ "serve"; "--socket"; socket; "--workers"; "65" ], 2);
    ([ "client"; "--socket"; "/nonexistent/lcp.sock"; "ping" ], 1);
  ]

let test_exit_codes () =
  List.iter
    (fun (args, want) ->
      let code, _, err = run args in
      let line = String.concat " " args in
      check_int (Printf.sprintf "lcp %s exits %d" line want) want code;
      check_bool
        (Printf.sprintf "lcp %s raises no uncaught exception" line)
        false
        (contains ~needle:"Fatal error" err || contains ~needle:"exception" err))
    table;
  check_bool "no daemon socket left behind" false (Sys.file_exists socket)

let member key json =
  match Json.member key json with Ok v -> v | Error e -> Alcotest.fail e

let strip = function
  | Json.Obj members ->
      Json.Obj (List.filter (fun (k, _) -> k <> "wall_ms" && k <> "cache") members)
  | j -> j

let test_local_sweep_is_session () =
  let code, out, _ = run [ "sweep"; "degree-one"; "-n"; "5"; "-j"; "1" ] in
  check_int "local sweep exits 0" 0 code;
  let local =
    match Json.of_string out with
    | Ok j -> member "result" j
    | Error e -> Alcotest.fail ("stdout is not one JSON response: " ^ e)
  in
  let req =
    {
      Protocol.kind =
        Protocol.Sweep
          {
            decoder = "degree-one";
            n = 5;
            strategy = "orderly";
            early_exit = false;
            shards = 1;
          };
      opts = { Protocol.default_opts with Protocol.jobs = Some 1 };
    }
  in
  let session = Session.create () in
  let cfg = Session.cfg_of_request session req ~emit:ignore in
  match Session.execute session req cfg with
  | Protocol.Done, _, payload ->
      Alcotest.(check string)
        "lcp sweep result = Session.execute payload (less wall_ms, cache)"
        (Json.to_string (strip payload))
        (Json.to_string (strip local))
  | _, reason, _ -> Alcotest.fail (Option.value reason ~default:"execute failed")

(* The printed response is the jobs=4 run's; it must have enumerated
   for itself rather than read the listing the jobs=1 run cached. *)
let test_compare_holds () =
  let code, out, err = run [ "sweep"; "degree-one"; "-n"; "5"; "-j"; "4"; "--compare" ] in
  check_int ("--compare across widths exits 0" ^ err) 0 code;
  match Json.of_string out with
  | Ok j ->
      let misses = member "cache_misses" (member "cache" (member "result" j)) in
      check_bool "the jobs=4 run enumerated on a cold class cache" true
        (match misses with Json.Int m -> m > 0 | _ -> false)
  | Error e -> Alcotest.fail ("stdout is not one JSON response: " ^ e)

let suite =
  [
    slow_case "argv table: exit codes, no uncaught exception" test_exit_codes;
    slow_case "local sweep answers what Session.execute answers"
      test_local_sweep_is_session;
    slow_case "sweep --compare: jobs=1 and jobs=4 agree" test_compare_holds;
  ]
