(* Fail when a library exports a value that nothing outside its own
   module uses, unless scripts/exports_allowlist.txt names it with a
   reason. Keeps lib/*/*.mli down to what bin/, bench/ and examples/
   (and the libraries themselves) call.

   The check reads the typed trees dune writes (-bin-annot). The
   exports are the [val] items of every lib/*/*.mli, from its .cmti,
   nested modules included ([Trace.active] in view.mli). A use is an
   identifier expression in some .cmt under lib/ bin/ bench/ examples/
   whose value description was declared at that [val]: the compiler
   has already resolved aliases, [open], [let open] and [include], so
   a name matches only the export it denotes. Tests count only for
   lib/oracle, whose exports exist for them. A module's own .ml refers
   to its own bindings, never to its .mli, so it is not a user.

   Allowlist lines: [lib/DIR/FILE.mli NAME REASON...]; [#] starts a
   comment. An entry for an export that has gained a user, or that no
   longer exists, fails the check too, so the list cannot go stale.

   The typed trees must be current: a .ml under those directories
   with no .cmt (an executable's main module gets one only from
   [@check], not from a plain [dune build]), or a .cmt compiled
   against an interface that has changed since, stops the check, since
   either would miscount uses.

   Usage, from the repository root:
     dune build @check && dune exec scripts/check_exports.exe
   Exit 0 clean, 1 findings, 2 missing or stale typed trees. *)

let build = "_build/default"
let allowlist = "scripts/exports_allowlist.txt"
let dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ]

(* Every file under [dir] (dune's .objs directories included) whose
   name ends in [ext]. *)
let rec files ext dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names |> List.sort compare
    |> List.concat_map (fun n ->
      let p = Filename.concat dir n in
      if Sys.is_directory p then files ext p
      else if Filename.check_suffix p ext then [ p ]
      else [])

let trees ext dir = List.map Cmt_format.read_cmt (files ext (Filename.concat build dir))

let key (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_fname, p.pos_cnum)

let under prefix s = String.starts_with ~prefix s
let source (c : Cmt_format.cmt_infos) = Option.value c.cmt_sourcefile ~default:""

(* (mli, qualified name, key) for every [val] of a lib/*/*.mli. *)
let exports interfaces =
  let rec items mli path (sg : Typedtree.signature) =
    List.concat_map
      (fun (it : Typedtree.signature_item) ->
        match it.sig_desc with
        | Tsig_value vd -> [ (mli, path ^ vd.val_name.txt, key vd.val_loc) ]
        | Tsig_module
            { md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          items mli (path ^ m ^ ".") sg
        | _ -> [])
      sg.sig_items
  in
  List.concat_map
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Interface sg when under "lib/" (source c) -> items (source c) "" sg
      | _ -> [])
    interfaces

(* Keys of the value descriptions the implementations reference. *)
let uses impls =
  let seen = Hashtbl.create 4096 in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> Hashtbl.replace seen (key vd.val_loc) ()
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Implementation str -> it.structure it str
      | _ -> ())
    impls;
  seen

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'

let report status what = function
  | [] -> ()
  | lines ->
    Printf.printf "check_exports: %s:\n" what;
    List.iter (Printf.printf "  %s\n") (List.sort_uniq compare lines);
    status := max !status 1

let () =
  let interfaces = trees ".cmti" "lib" in
  let impls = List.concat_map (trees ".cmt") dirs in
  if interfaces = [] then begin
    prerr_endline
      "check_exports: no typed trees under _build/default/lib; run `dune \
       build @check` from the repository root first";
    exit 2
  end;
  let digest = Hashtbl.create 256 in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      Option.iter (Hashtbl.replace digest c.cmt_modname) c.cmt_interface_digest)
    interfaces;
  let stale =
    List.filter
      (fun (c : Cmt_format.cmt_infos) ->
        List.exists
          (fun (m, d) ->
            match (d, Hashtbl.find_opt digest m) with
            | Some d, Some now -> d <> now
            | _ -> false)
          c.cmt_imports)
      impls
    |> List.map source
  in
  let compiled = List.map source impls in
  let missing =
    List.concat_map (files ".ml") dirs
    |> List.filter (fun ml -> not (List.mem ml compiled))
  in
  let status = ref 0 in
  report status "no typed tree (run `dune build @check` first)" missing;
  report status "typed tree older than an interface it uses (run `dune build @check` first)" stale;
  if !status <> 0 then exit 2;
  let exports = exports interfaces in
  let tests, prod = List.partition (fun c -> under "test/" (source c)) impls in
  let prod = uses prod and tests = uses tests in
  let used (mli, _, k) =
    Hashtbl.mem prod k || (under "lib/oracle/" mli && Hashtbl.mem tests k)
  in
  let unused =
    List.filter (fun e -> not (used e)) exports
    |> List.map (fun (mli, name, _) -> (mli, name))
  in
  let entries =
    read_lines allowlist
    |> List.filter_map (fun l ->
      let l = String.trim l in
      if l = "" || l.[0] = '#' then None
      else
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | mli :: name :: reason -> Some ((mli, name), reason <> [], l)
        | _ -> Some ((l, ""), false, l))
  in
  let allowed = List.map (fun (e, _, _) -> e) entries in
  let show (mli, name) = mli ^ " " ^ name in
  report status "allowlist entries without a reason"
    (List.filter_map (fun (_, ok, l) -> if ok then None else Some l) entries);
  report status
    "exported, but nothing outside the module uses it (drop it from the \
     .mli, or allowlist it with a reason)"
    (List.filter (fun e -> not (List.mem e allowed)) unused |> List.map show);
  report status "stale allowlist entries (the export is now used, or gone)"
    (List.filter (fun e -> not (List.mem e unused)) allowed |> List.map show);
  if !status = 0 then
    Printf.printf "check_exports: %d exports checked, %d allowlisted, none unused\n"
      (List.length exports) (List.length allowed);
  exit !status
