(* Round-trip and parser tests for the dependency-free Json module. *)
open Churnet_util

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let json_exn s = Result.get_ok (Json.of_string s)
let roundtrip v = json_exn (Json.to_string v)
let roundtrip_pretty v = json_exn (Json.to_string ~pretty:true v)

let test_scalars () =
  List.iter
    (fun v -> check_bool "scalar roundtrip" true (roundtrip v = v))
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.5;
      Json.Float (-1.25e-9);
      Json.Float 3.141592653589793;
      Json.Float 1e300;
      Json.String "";
      Json.String "plain";
    ]

let test_float_exact_roundtrip () =
  (* Floats must round-trip bit-exactly, and must re-parse as Float (not
     Int) even when the value is integral. *)
  List.iter
    (fun f ->
      match roundtrip (Json.Float f) with
      | Json.Float g ->
          check_bool (Printf.sprintf "float %h exact" f) true (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | _ -> Alcotest.fail "float did not come back as Float")
    [ 2.0; -0.0; 0.1; 1. /. 3.; 6.02214076e23; 5e-324; 1234567890.0 ]

let test_nan_inf_become_null () =
  check_string "nan" "null" (Json.to_string (Json.Float nan));
  check_string "inf" "null" (Json.to_string (Json.Float infinity));
  check_string "-inf" "null" (Json.to_string (Json.Float neg_infinity));
  check_bool "nan in array parses back as Null" true
    (roundtrip (Json.Arr [ Json.Float nan; Json.Int 1 ])
    = Json.Arr [ Json.Null; Json.Int 1 ]);
  check_bool "float_opt None" true (Json.float_opt None = Json.Null);
  check_bool "of_finite nan" true (Json.of_finite nan = Json.Null);
  check_bool "of_finite finite" true (Json.of_finite 2.5 = Json.Float 2.5)

let test_string_escaping () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "escape roundtrip %S" s) true
        (roundtrip (Json.String s) = Json.String s))
    [
      "quote \" backslash \\";
      "newline \n tab \t return \r";
      "control \x01\x02\x1f";
      "backspace \b formfeed \012";
      "utf8 déjà vu — ✓";
      "slash / stays";
    ]

let test_escaped_output_form () =
  check_string "escapes" "\"a\\\"b\\\\c\\nd\"" (Json.to_string (Json.String "a\"b\\c\nd"));
  check_string "control" "\"\\u0001\"" (Json.to_string (Json.String "\x01"))

let test_unicode_escapes_parse () =
  check_bool "bmp" true (json_exn {|"\u00e9"|} = Json.String "\xc3\xa9");
  check_bool "surrogate pair" true
    (json_exn {|"\ud83d\ude00"|} = Json.String "\xf0\x9f\x98\x80");
  check_bool "escaped solidus" true (json_exn {|"\/"|} = Json.String "/")

let test_nesting () =
  let v =
    Json.Obj
      [
        ("id", Json.String "E1");
        ("holds", Json.Bool true);
        ( "checks",
          Json.Arr
            [
              Json.Obj
                [
                  ("expected_value", Json.Float 3.5);
                  ("measured_value", Json.Null);
                  ("deep", Json.Arr [ Json.Arr [ Json.Int 1; Json.Int 2 ]; Json.Obj [] ]);
                ];
            ] );
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
      ]
  in
  check_bool "compact roundtrip" true (roundtrip v = v);
  check_bool "pretty roundtrip" true (roundtrip_pretty v = v);
  check_bool "pretty and compact agree" true
    (json_exn (Json.to_string v)
    = json_exn (Json.to_string ~pretty:true v))

let test_accessors () =
  let v = json_exn {|{"a": 1, "b": "two", "c": [true, null], "d": 2.5}|} in
  check_bool "member a" true (Json.member "a" v = Some (Json.Int 1));
  check_bool "member missing" true (Json.member "zz" v = None);
  check_bool "as_string" true
    (Option.bind (Json.member "b" v) Json.as_string = Some "two");
  check_bool "as_float of int" true
    (Option.bind (Json.member "a" v) Json.as_float = Some 1.);
  check_bool "as_float of float" true
    (Option.bind (Json.member "d" v) Json.as_float = Some 2.5);
  check_bool "as_list" true
    (List.length (Json.as_list (Option.get (Json.member "c" v))) = 2);
  check_bool "as_bool" true
    (List.hd (Json.as_list (Option.get (Json.member "c" v))) = Json.Bool true)

let test_number_parsing () =
  check_bool "int" true (json_exn "17" = Json.Int 17);
  check_bool "negative int" true (json_exn "-3" = Json.Int (-3));
  check_bool "float dot" true (json_exn "2.5" = Json.Float 2.5);
  check_bool "float exp" true (json_exn "1e3" = Json.Float 1000.);
  check_bool "float neg exp" true (json_exn "-2.5E-1" = Json.Float (-0.25));
  check_bool "huge int falls back to float" true
    (match json_exn "123456789012345678901234567890" with
    | Json.Float _ -> true
    | _ -> false)

let test_whitespace_tolerated () =
  check_bool "padded" true
    (json_exn "  { \"a\" : [ 1 , 2 ] }\n" = Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Int 2 ]) ])

let test_malformed_rejected () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    [
      "";
      "{";
      "[1, 2";
      "{\"a\" 1}";
      "{\"a\": 1,}";
      "tru";
      "nul";
      "1.2.3";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"lone \\ud800 surrogate\"";
      "[1] trailing";
      "'single'";
      "+1";
      "01e";
    ]

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let found = ref false in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then found := true
  done;
  !found

let test_error_mentions_offset () =
  match Json.of_string "[1, oops]" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error msg -> check_bool "mentions offset" true (contains "offset" msg)

let suite =
  [
    ("scalar roundtrip", `Quick, test_scalars);
    ("float exact roundtrip", `Quick, test_float_exact_roundtrip);
    ("nan/inf become null", `Quick, test_nan_inf_become_null);
    ("string escaping", `Quick, test_string_escaping);
    ("escaped output form", `Quick, test_escaped_output_form);
    ("unicode escapes", `Quick, test_unicode_escapes_parse);
    ("nesting", `Quick, test_nesting);
    ("accessors", `Quick, test_accessors);
    ("number parsing", `Quick, test_number_parsing);
    ("whitespace", `Quick, test_whitespace_tolerated);
    ("malformed rejected", `Quick, test_malformed_rejected);
    ("error mentions offset", `Quick, test_error_mentions_offset);
  ]
