open Helpers
module Json = Lcp_obs.Json

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j' = j
  | Error _ -> false

let test_render () =
  Alcotest.(check string) "object" {|{"a":1,"b":[true,null]}|}
    (Json.to_string (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (Json.to_string (Json.String "a\"b\\c\nd"))

let test_parse_basic () =
  check_bool "int" true (Json.of_string "42" = Ok (Json.Int 42));
  check_bool "negative" true (Json.of_string "-7" = Ok (Json.Int (-7)));
  check_bool "bool" true (Json.of_string "true" = Ok (Json.Bool true));
  check_bool "null" true (Json.of_string "null" = Ok Json.Null);
  check_bool "string" true (Json.of_string {|"hi"|} = Ok (Json.String "hi"));
  check_bool "empty list" true (Json.of_string "[]" = Ok (Json.List []));
  check_bool "empty obj" true (Json.of_string "{}" = Ok (Json.Obj []));
  check_bool "whitespace" true
    (Json.of_string "  [ 1 , 2 ]  " = Ok (Json.List [ Json.Int 1; Json.Int 2 ]))

let test_parse_nested () =
  match Json.of_string {|{"xs":[{"y":1},{"y":2}],"s":"a:b|c"}|} with
  | Ok j ->
      let open Json in
      check_bool "member" true
        (Result.bind (member "s" j) to_str = Ok "a:b|c");
      check_bool "list member" true
        (match Result.bind (member "xs" j) to_list with
        | Ok [ _; second ] -> Result.bind (member "y" second) to_int = Ok 2
        | _ -> false)
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad s = match Json.of_string s with Error _ -> true | Ok _ -> false in
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "floats rejected" true (bad "1.5");
  check_bool "bad literal" true (bad "trux");
  check_bool "unclosed array" true (bad "[1,2");
  check_bool "missing colon" true (bad {|{"a" 1}|})

let test_roundtrips () =
  List.iter
    (fun j -> check_bool "roundtrip" true (roundtrip j))
    [
      Json.Null;
      Json.Int 0;
      Json.Int (-123456);
      Json.String "";
      Json.String "tab\there \"and\" back\\slash";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [ ("nested", Json.Obj [ ("deep", Json.List [ Json.Bool false ]) ]);
          ("k", Json.String ":|,{}[]") ];
    ]

let test_pretty_parses () =
  let j =
    Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.String "x") ]
  in
  check_bool "pretty output re-parses" true
    (Json.of_string (Json.to_string_pretty j) = Ok j)

let suite =
  [
    case "rendering" test_render;
    case "basic parsing" test_parse_basic;
    case "nested parsing" test_parse_nested;
    case "parse errors" test_parse_errors;
    case "roundtrips" test_roundtrips;
    case "pretty output parses" test_pretty_parses;
  ]
