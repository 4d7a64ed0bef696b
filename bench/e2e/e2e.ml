(* The end-to-end benchmark: five workloads, each in its own process,
   measured from outside through the library's public entry points.

     e2e.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--quick]
       Runs one workload and prints its metrics, a "ROWS {json}" line
       with every row, and as the last line the result object
       {"correct", "attempted", "failed", "metrics"} holding the
       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
       named in Layers. Exit 0 when every output gate holds, 1 when
       one fails, 2 on a usage error or a missing lcp binary.

     e2e.exe [--seed S] [--seconds T] [--quick] [--out FILE]
             [--compare BASE.json] [--spec BENCHMARK.json]
       Runs every workload untraced, then every workload traced, each
       as a child process, and writes one JSON document of rows (to
       FILE, or standard output). --compare prints each row against a
       base document; --spec checks that every metric the benchmark
       file names is reported for every workload it lists. Exits 1
       when a gate or the spec check fails, never for a regression.

   --setup-probe is the mode of the child that setup_s times. *)

open Common

let workloads = [ "sweep-n8"; "shard-n8"; "coord-n8"; "serve-mix"; "sample-250k" ]
let needs_lcp w = w = "coord-n8" || w = "serve-mix"

(* Regression bounds: the share of the base median by which a metric may
   worsen (fail_frac: any increase). The rest are 25%, the largest
   BENCHMARK.json allows: on a shared 2-vCPU VM the spread of ten runs'
   medians reaches 21% for wall_s and 34% for setup_s (README.md,
   Noise). Metrics not listed have no bound. *)
let bounds =
  [
    ("setup_s", 0.25); ("wall_s", 0.25); ("peak_rss_mb", 0.25);
    ("check_p50_ms", 0.25); ("check_p99_ms", 0.25); ("sweep_p50_ms", 0.25);
    ("sweep_p90_ms", 0.25); ("throughput_rps", 0.25); ("cold_s", 0.25); ("fail_frac", 0.);
  ]

let higher_is_better m = m = "throughput_rps"

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  out : string option;
  compare : string option;
  spec : string option;
  setup_probe : bool;
}

let usage msg =
  prerr_endline ("e2e: " ^ msg);
  exit 2

let parse_args () =
  let o =
    ref
      {
        workload = None; seed = 1; seconds = 15.; trace = false; quick = false; out = None;
        compare = None; spec = None; setup_probe = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        o := { !o with quick = true };
        go rest
    | "--setup-probe" :: rest ->
        o := { !o with setup_probe = true };
        go rest
    | flag :: v :: rest -> (
        let int () =
          match int_of_string_opt v with Some i -> i | None -> usage (flag ^ ": not an integer")
        in
        (match flag with
        | "--workload" ->
            if not (List.mem v workloads) then
              usage (Printf.sprintf "unknown workload %S (one of %s)" v (String.concat ", " workloads));
            o := { !o with workload = Some v }
        | "--seed" -> o := { !o with seed = int () }
        | "--seconds" ->
            let s = int () in
            if s < 0 then usage "--seconds must be >= 0";
            o := { !o with seconds = fi s }
        | "--trace" -> (
            match v with
            | "0" -> o := { !o with trace = false }
            | "1" -> o := { !o with trace = true }
            | _ -> usage "--trace takes 0 or 1")
        | "--out" -> o := { !o with out = Some v }
        | "--compare" -> o := { !o with compare = Some v }
        | "--spec" -> o := { !o with spec = Some v }
        | _ -> usage ("unknown argument " ^ flag));
        go rest)
    | [ flag ] -> usage ("missing value or unknown argument " ^ flag)
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let scale o = { quick = o.quick; seed = o.seed; seconds = (if o.quick then 0. else o.seconds); gap = ignore }

(* ---- set-up ---------------------------------------------------------- *)

(* What a workload builds before its first timed operation. The probe
   child runs it, reports "ready", then tears it down. *)
let setup_probe w sc =
  let ready () = print_endline "ready" in
  match w with
  | "sweep-n8" | "shard-n8" ->
      ignore (Sys.opaque_identity (Sweep_w.suite (), Sweep_w.params w sc));
      ready ()
  | "coord-n8" ->
      let dir = fresh_dir "coord" in
      ignore
        (Sys.opaque_identity
           (Coord_w.config sc ~bin:(lcp_bin ()) ~dir ~on_spawn:(fun ~shard:_ ~attempt:_ ~pid:_ -> ())));
      ready ()
  | "serve-mix" -> Serve_w.with_daemon ~bin:(lcp_bin ()) (fun _ -> ready ())
  | _ ->
      ignore (Sys.opaque_identity (Sample_w.build sc));
      ready ()

(* One setup_s sample: spawn the probe child, time spawn → "ready".
   This covers process start, module initialisation and the fixtures. *)
let setup_sample w (sc : scale) =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--setup-probe"; "--workload"; w; "--seed"; string_of_int sc.seed ]
      @ if sc.quick then [ "--quick" ] else [])
  in
  let t0 = now () in
  let dn = devnull () in
  let pid = Unix.create_process argv.(0) argv dn wr Unix.stderr in
  Unix.close dn;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  let t = now () -. t0 in
  close_in ic;
  match (line, waitpid_retry pid) with
  | Some "ready", Unix.WEXITED 0 -> t
  | _ -> failwith ("set-up probe failed for " ^ w)

(* Probes per gap between reps, sized for about 50 samples a run (20
   for sample-250k, whose probe builds its graph). The host's speed
   drifts over tens of seconds, so samples spread over the whole run
   give a median that moves less from run to run than a burst at the
   start. *)
let probes_per_gap w (sc : scale) =
  if sc.quick then 1
  else match w with "sweep-n8" -> 10 | "coord-n8" -> 12 | "shard-n8" -> 4 | _ -> 3

(* ---- one workload ------------------------------------------------------ *)

let run_workload w ~trace (sc : scale) =
  let bin = lcp_bin () in
  if trace then
    match w with
    | "sweep-n8" | "shard-n8" -> Sweep_w.trace sc (Sweep_w.params w sc)
    | "coord-n8" -> Coord_w.trace sc ~bin
    | "serve-mix" -> Serve_w.trace sc ~bin
    | _ -> Sample_w.trace sc (Sample_w.build sc)
  else begin
    let setup = ref [] and host = ref [] in
    let gap () =
      for _ = 1 to probes_per_gap w sc do
        setup := setup_sample w sc :: !setup
      done;
      for _ = 1 to 3 do
        host := (host_ref_s () *. 1e3) :: !host
      done
    in
    let sc = { sc with gap } in
    let oc =
      match w with
      | "sweep-n8" | "shard-n8" -> Sweep_w.run sc (Sweep_w.params w sc)
      | "coord-n8" -> Coord_w.run sc ~bin
      | "serve-mix" -> Serve_w.run sc ~bin
      | _ -> Sample_w.run sc (Sample_w.build sc)
    in
    { oc with rows = (row "setup_s" "s" (List.rev !setup) :: oc.rows) @ [ row "host.ref_ms" "ms" !host ] }
  end

let value r = median r.samples

let row_json r =
  Fjson.Obj
    [
      ("metric", Fjson.Str r.metric);
      ("unit", Fjson.Str r.unit_);
      ("value", Fjson.Num (value r));
      ("spread", Fjson.Num (spread r.samples));
      ("reps", Fjson.Num (fi (List.length r.samples)));
      ("samples", Fjson.Arr (List.map (fun x -> Fjson.Num x) r.samples));
    ]

let print_rows w ~trace (oc : outcome) =
  Printf.printf "== %s (%s)\n" w (if trace then "traced" else "untraced");
  List.iter
    (fun r ->
      Printf.printf "  %-34s %14.6g %-6s reps=%-3d spread=%.1f%%\n" r.metric (value r) r.unit_
        (List.length r.samples) (100. *. spread r.samples))
    oc.rows;
  List.iter (fun e -> Printf.printf "  GATE FAILED: %s\n" e) oc.errors

(* The result line: exactly the metrics the benchmark file lists. *)
let result_line ~trace (oc : outcome) =
  let names = if trace then Layers.per_layer else Layers.end_to_end in
  let missing = ref [] in
  let metrics =
    List.filter_map
      (fun (name, unit_) ->
        match List.find_opt (fun r -> r.metric = name) oc.rows with
        | Some r -> Some (name, Fjson.Obj [ ("value", Fjson.Num (value r)); ("unit", Fjson.Str unit_) ])
        | None ->
            missing := name :: !missing;
            None)
      names
  in
  let errors = oc.errors @ List.map (fun n -> "metric not reported: " ^ n) !missing in
  ( errors,
    Fjson.Obj
      [
        ("correct", Fjson.Bool (errors = []));
        ("attempted", Fjson.Num (fi oc.attempted));
        ("failed", Fjson.Num (fi oc.failed));
        ("metrics", Fjson.Obj metrics);
      ] )

let single o w =
  let sc = scale o in
  if o.setup_probe then begin
    setup_probe w sc;
    exit 0
  end;
  let oc = run_workload w ~trace:o.trace sc in
  print_rows w ~trace:o.trace oc;
  let errors, line = result_line ~trace:o.trace oc in
  let rows_doc =
    Fjson.Obj
      [
        ("workload", Fjson.Str w);
        ("trace", Fjson.Bool o.trace);
        ("correct", Fjson.Bool (errors = []));
        ("attempted", Fjson.Num (fi oc.attempted));
        ("failed", Fjson.Num (fi oc.failed));
        ("errors", Fjson.Arr (List.map (fun e -> Fjson.Str e) errors));
        ("rows", Fjson.Arr (List.map row_json oc.rows));
      ]
  in
  print_endline ("ROWS " ^ Fjson.to_string rows_doc);
  print_endline (Fjson.to_string line);
  exit (if errors = [] then 0 else 1)

(* ---- every workload ---------------------------------------------------- *)

(* Run one workload in a child process; echo its output and return its
   ROWS document. *)
let child o w ~trace =
  let args =
    [ "--workload"; w; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%.0f" o.seconds;
      "--trace"; (if trace then "1" else "0") ]
    @ if o.quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rows = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"ROWS " line then
         rows := Result.to_option (Fjson.of_string (String.sub line 5 (String.length line - 5)))
       else if String.starts_with ~prefix:"{" line then ()
       else print_endline line
     done
   with End_of_file -> ());
  let st = Unix.close_process_in ic in
  match (!rows, st) with
  | Some doc, (Unix.WEXITED (0 | 1)) -> doc
  | _ -> failwith (Printf.sprintf "workload %s (trace %b) did not report rows" w trace)

let rows_of doc =
  List.map
    (fun r -> (Fjson.str_exn (Option.get (Fjson.member "metric" r)), r))
    (Fjson.arr_exn (Option.get (Fjson.member "rows" doc)))

let field k r = Fjson.num_exn (Option.get (Fjson.member k r))

let find_workload doc section w =
  List.find_opt
    (fun x -> Fjson.member "name" x = Some (Fjson.Str w))
    (Fjson.arr_exn (Option.get (Fjson.member "workloads" doc)))
  |> Fun.flip Option.bind (Fjson.member section)

(* A timing compares code only when the host ran at the same speed for
   both documents: when their host.ref_ms medians differ by more than
   this share, the workload's timings read unresolved. *)
let host_tolerance = 0.10
let is_timing unit_ = List.mem unit_ [ "s"; "ms"; "1/s" ]

(* better / same / worse / unresolved for one row against its base. *)
let verdict metric ~bound ~host_moved ~base ~next ~base_spread ~next_spread =
  if host_moved || base_spread > bound || next_spread > bound then "unresolved"
  else
    let delta = if base = 0. then next -. base else (next -. base) /. Float.abs base in
    let delta = if higher_is_better metric then -.delta else delta in
    if delta > bound then "worse" else if delta < -.bound then "better" else "same"

let compare_docs ~base doc =
  Printf.printf "\n== compare against base\n%-12s %-34s %14s %14s %9s %7s  %s\n" "workload" "metric" "base"
    "new" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun section ->
          match (find_workload base section w, find_workload doc section w) with
          | Some b, Some n ->
              let host_drift =
                match (List.assoc_opt "host.ref_ms" (rows_of b), List.assoc_opt "host.ref_ms" (rows_of n)) with
                | Some hb, Some hn -> Float.abs (field "value" hn -. field "value" hb) /. field "value" hb
                | _ -> 0.
              in
              List.iter
                (fun (metric, r) ->
                  match List.assoc_opt metric (rows_of b) with
                  | None -> ()
                  | Some br ->
                      let bv = field "value" br and nv = field "value" r in
                      let delta =
                        if bv = 0. then "-" else Printf.sprintf "%.1f%%" (100. *. (nv -. bv) /. Float.abs bv)
                      in
                      let host_moved =
                        host_drift > host_tolerance && is_timing (Fjson.str_exn (Option.get (Fjson.member "unit" r)))
                      in
                      let bound, v =
                        match List.assoc_opt metric bounds with
                        | Some bound when section = "untraced" ->
                            ( Printf.sprintf "%.0f%%" (100. *. bound),
                              verdict metric ~bound ~host_moved ~base:bv ~next:nv ~base_spread:(field "spread" br)
                                ~next_spread:(field "spread" r) )
                        | _ -> ("-", "-")
                      in
                      Printf.printf "%-12s %-34s %14.6g %14.6g %9s %7s  %s\n" w metric bv nv delta bound v)
                (rows_of n)
          | _ -> Printf.printf "%-12s (%s rows missing on one side)\n" w section)
        [ "untraced"; "traced" ])
    workloads

(* Every metric BENCHMARK.json names, reported by every workload it
   lists, with the same unit (and, end to end, the same bound). *)
let check_spec path doc =
  let spec =
    match Fjson.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok s -> s
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let names key = Fjson.arr_exn (Option.get (Fjson.member key spec)) in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let spec_workloads =
    List.map (fun x -> Fjson.str_exn (Option.get (Fjson.member "name" x))) (names "workloads")
  in
  if List.sort compare spec_workloads <> List.sort compare workloads then
    err "workloads differ: %s vs %s" (String.concat "," spec_workloads) (String.concat "," workloads);
  List.iter
    (fun (key, section) ->
      List.iter
        (fun m ->
          let name = Fjson.str_exn (Option.get (Fjson.member "name" m)) in
          let unit_ = Fjson.str_exn (Option.get (Fjson.member "unit" m)) in
          (match Fjson.member "bound" m with
          | Some b when List.assoc_opt name bounds <> Some (Fjson.num_exn b) ->
              err "%s: bound differs from the harness" name
          | _ -> ());
          List.iter
            (fun w ->
              match find_workload doc section w with
              | None -> err "%s: no %s rows" w section
              | Some rows -> (
                  match List.assoc_opt name (rows_of rows) with
                  | None -> err "%s: %s not reported" w name
                  | Some r ->
                      if Fjson.member "unit" r <> Some (Fjson.Str unit_) then
                        err "%s: %s has another unit" w name))
            spec_workloads)
        (names key))
    [ ("end_to_end", "untraced"); ("per_layer", "traced") ];
  List.rev !errs

let all o =
  if not (Sys.file_exists (lcp_bin ())) then begin
    prerr_endline ("e2e: lcp binary not built: " ^ lcp_bin ());
    exit 2
  end;
  let untraced = List.map (fun w -> (w, child o w ~trace:false)) workloads in
  let traced = List.map (fun w -> (w, child o w ~trace:true)) workloads in
  let errors =
    List.concat_map
      (fun (_, d) -> List.map Fjson.str_exn (Fjson.arr_exn (Option.get (Fjson.member "errors" d))))
      (untraced @ traced)
  in
  if errors <> [] then begin
    List.iter (fun e -> Printf.printf "GATE FAILED: %s\n" e) errors;
    exit 1
  end;
  let doc =
    Fjson.Obj
      [
        ("schema_version", Fjson.Num 1.);
        ("seed", Fjson.Num (fi o.seed));
        ("seconds", Fjson.Num (if o.quick then 0. else o.seconds));
        ("quick", Fjson.Bool o.quick);
        ("nproc", Fjson.Num (fi (Domain.recommended_domain_count ())));
        ( "workloads",
          Fjson.Arr
            (List.map
               (fun w ->
                 Fjson.Obj
                   [
                     ("name", Fjson.Str w);
                     ("untraced", List.assoc w untraced);
                     ("traced", List.assoc w traced);
                   ])
               workloads) );
      ]
  in
  let text = Fjson.to_string_pretty doc ^ "\n" in
  (match o.out with
  | Some path -> Out_channel.with_open_bin path (fun oc -> output_string oc text)
  | None -> print_string text);
  (match o.compare with
  | Some path -> (
      match Fjson.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok base -> compare_docs ~base doc
      | Error e -> usage (path ^ ": " ^ e)
      | exception Sys_error e -> usage e)
  | None -> ());
  match o.spec with
  | None -> ()
  | Some path -> (
      match check_spec path doc with
      | [] -> Printf.printf "spec %s: every named metric reported by every workload\n" path
      | errs ->
          List.iter (fun e -> Printf.printf "SPEC: %s\n" e) errs;
          exit 1)

let () =
  let o = parse_args () in
  match o.workload with
  | Some w ->
      if needs_lcp w && not (Sys.file_exists (lcp_bin ())) then begin
        prerr_endline ("e2e: lcp binary not built: " ^ lcp_bin ());
        exit 2
      end;
      single o w
  | None -> all o
