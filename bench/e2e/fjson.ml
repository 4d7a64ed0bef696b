(* JSON with floating-point numbers. Lcp_obs.Json exchanges integers
   only, but the harness reports measured times with all their digits
   and reads BENCHMARK.json bounds such as 0.1, so it carries its own
   small reader and writer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Integers print without a fraction; every other value with 17
   significant digits, which round-trips a double exactly. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (number f)
      else Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* Two-space indented rendering; arrays of scalars stay on one line. *)
let to_string_pretty v =
  let b = Buffer.create 4096 in
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let nl i =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make i ' ')
  in
  let rec go ind v =
    match v with
    | Arr l when l <> [] && not (List.for_all scalar l) ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            nl (ind + 2);
            go (ind + 2) x)
          l;
        nl ind;
        Buffer.add_char b ']'
    | Obj l when l <> [] ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            nl (ind + 2);
            write b (Str k);
            Buffer.add_string b ": ";
            go (ind + 2) x)
          l;
        nl ind;
        Buffer.add_char b '}'
    | v -> write b v
  in
  go 0 v;
  Buffer.contents b

exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then begin
      incr pos;
      skip ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code =
                if !pos + 4 > n then None else int_of_string_opt ("0x" ^ String.sub s !pos 4)
              in
              let code = match code with Some c -> c | None -> fail "bad \\u escape" in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if Uchar.is_valid code then Buffer.add_utf_8_uchar b (Uchar.of_int code)
              else fail "bad \\u escape"
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip ();
            let k = str () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  match
    let v = value () in
    skip ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let num_exn = function Num f -> f | _ -> failwith "expected a number"
let str_exn = function Str s -> s | _ -> failwith "expected a string"
let arr_exn = function Arr l -> l | _ -> failwith "expected an array"
