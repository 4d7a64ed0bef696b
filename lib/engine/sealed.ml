module Json = Lcp_obs.Json

let digest members =
  Digest.to_hex (Digest.string (Json.to_string (Json.Obj members)))

let check ~what j =
  match (j, Json.member "digest" j) with
  | Json.Obj members, Ok (Json.String stored)
    when digest (List.filter (fun (k, _) -> k <> "digest") members) = stored ->
      Ok ()
  | _, Error msg -> Error msg
  | _ ->
      Error
        (Printf.sprintf "%s digest mismatch: the file was edited or corrupted"
           what)

(* write-to-tmp then rename, same as Sink *)
let save ~path members =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let sealed = members @ [ ("digest", Json.String (digest members)) ] in
      output_string oc (Json.to_string_pretty (Json.Obj sealed));
      output_char oc '\n');
  Sys.rename tmp path

let read ?(terminated = false) path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw when terminated && not (String.ends_with ~suffix:"\n" raw) ->
      Error (Printf.sprintf "%s: truncated: no final newline" path)
  | raw ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Json.of_string raw)
