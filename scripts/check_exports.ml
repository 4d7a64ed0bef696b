(* Fail when a library exports a value that nothing outside its own
   module uses, or a value with an optional parameter that nothing
   outside its module passes, unless scripts/exports_allowlist.txt
   names it with a reason. Keeps lib/*/*.mli down to what bin/, bench/
   and examples/ (and the libraries themselves) call, and how they call
   it.

   The check reads the typed trees dune writes (-bin-annot). The
   exports are the [val] items of every lib/*/*.mli, from its .cmti,
   nested modules included ([Trace.active] in view.mli), and their
   optional parameters are the [?l:] arrows of the type written there.
   A use is an identifier expression in some .cmt under lib/ bin/
   bench/ examples/ whose value description was declared at that
   [val]: the compiler has already resolved aliases, [open], [let open]
   and [include], so a name matches only the export it denotes. A pass
   of [?l] is an application of such an identifier with the argument
   [~l:x] or [?l:x] written in the source, forwarding included; the
   [None] the compiler supplies for an omitted optional argument sits
   at location [_none_] and is not a pass. Tests count only for
   lib/oracle, whose exports exist for them. A module's own .ml refers
   to its own bindings, never to its .mli, so it is not a user.

   Allowlist lines: [lib/DIR/FILE.mli NAME REASON...] for a value,
   [lib/DIR/FILE.mli NAME ?LABEL REASON...] for one of its optional
   parameters; [#] starts a comment. An entry for an export or a
   parameter that has gained a user, or that no longer exists, fails
   the check too, so the list cannot go stale.

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

(* The optional parameters of a [val]'s type, as written in the .mli. *)
let rec optionals (t : Typedtree.core_type) =
  match t.ctyp_desc with
  | Ttyp_arrow (Optional l, _, rest) -> l :: optionals rest
  | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optionals rest
  | _ -> []

(* (mli, qualified name, key, optional labels) for every [val] of a
   lib/*/*.mli. *)
let exports interfaces =
  let rec items mli path (sg : Typedtree.signature) =
    List.concat_map
      (fun (it : Typedtree.signature_item) ->
        match it.sig_desc with
        | Tsig_value vd ->
          [ (mli, path ^ vd.val_name.txt, key vd.val_loc, optionals vd.val_desc) ]
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

(* What the implementations reference: [(key, None)] for a value
   description they name, [(key, Some l)] for one they apply with its
   optional argument [l] written out ([~l:x] or [?l:x]). An optional
   argument the compiler fills in because the call omits it is
   located at [_none_], and is not a pass. *)
let uses impls =
  let seen = Hashtbl.create 4096 in
  let mark (vd : Types.value_description) l =
    Hashtbl.replace seen (key vd.val_loc, l) ()
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (* the applied identifier itself is marked when the iterator
       reaches it *)
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> mark vd None
     | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
       List.iter
         (function
           | Asttypes.Optional l, Some (a : Typedtree.expression)
             when not (Location.is_none a.exp_loc) -> mark vd (Some l)
           | _ -> ())
         args
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
  (* every export and every optional parameter of one, as
     (mli, name, label) with [label = None] for the value itself *)
  let checked =
    List.concat_map
      (fun (mli, name, k, labels) ->
        (mli, name, k, None)
        :: List.map (fun l -> (mli, name, k, Some l)) labels)
      exports
  in
  let used (mli, _, k, l) =
    Hashtbl.mem prod (k, l)
    || (under "lib/oracle/" mli && Hashtbl.mem tests (k, l))
  in
  let unused =
    List.filter (fun e -> not (used e)) checked
    |> List.map (fun (mli, name, _, l) -> (mli, name, l))
  in
  let entries =
    read_lines allowlist
    |> List.filter_map (fun l ->
      let l = String.trim l in
      if l = "" || l.[0] = '#' then None
      else
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | mli :: name :: opt :: reason when opt.[0] = '?' ->
          let label = String.sub opt 1 (String.length opt - 1) in
          Some ((mli, name, Some label), reason <> [], l)
        | mli :: name :: reason -> Some ((mli, name, None), reason <> [], l)
        | _ -> Some ((l, "", None), false, l))
  in
  let allowed = List.map (fun (e, _, _) -> e) entries in
  let show (mli, name, l) =
    mli ^ " " ^ name ^ Option.fold ~none:"" ~some:(( ^ ) " ?") l
  in
  let values, params = List.partition (fun (_, _, l) -> l = None) unused in
  let unlisted = List.filter (fun e -> not (List.mem e allowed)) in
  report status "allowlist entries without a reason"
    (List.filter_map (fun (_, ok, l) -> if ok then None else Some l) entries);
  report status
    "exported, but nothing outside the module uses it (drop it from the \
     .mli, or allowlist it with a reason)"
    (unlisted values |> List.map show);
  report status
    "optional parameter that nothing outside the module passes (drop it, \
     or allowlist it with a reason)"
    (unlisted params |> List.map show);
  report status
    "stale allowlist entries (the export or parameter is now used, or gone)"
    (List.filter (fun e -> not (List.mem e unused)) allowed |> List.map show);
  if !status = 0 then
    Printf.printf
      "check_exports: %d exports and %d optional parameters checked, %d \
       allowlisted, none unused\n"
      (List.length exports)
      (List.length checked - List.length exports)
      (List.length allowed);
  exit !status
