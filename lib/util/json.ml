type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

let float_opt = function Some v -> Float v | None -> Null
let of_finite v = if Float.is_finite v then Float v else Null

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal that round-trips; forced to contain '.' or 'e' so it
   re-parses as a float, not an int. *)
let float_repr v =
  let s =
    let short = Printf.sprintf "%.12g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let add_value ~pretty buf v =
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | String s -> escape_into buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_into buf k;
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            go (depth + 1) item)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  add_value ~pretty buf v;
  Buffer.contents buf

let to_channel ?(pretty = false) oc v =
  let buf = Buffer.create 1024 in
  add_value ~pretty buf v;
  Buffer.output_buffer oc buf

let write_file ?(pretty = false) path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel ~pretty oc v;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  (* [int_of_string] signals bad hex digits with [Failure]; a truncated
     escape raises [Parse_error].  Only those mean "malformed escape":
     anything else (Out_of_memory, Stack_overflow) must keep unwinding. *)
  let hex4_opt () =
    try Some (hex4 ()) with Failure _ | Parse_error _ -> None
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               let code =
                 match hex4_opt () with
                 | None -> fail "bad \\u escape"
                 | Some hi when hi >= 0xD800 && hi <= 0xDBFF ->
                     (* surrogate pair *)
                     if
                       !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                     then begin
                       pos := !pos + 2;
                       match hex4_opt () with
                       | Some lo when lo >= 0xDC00 && lo <= 0xDFFF ->
                           0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                       | _ -> fail "bad low surrogate"
                     end
                     else fail "lone high surrogate"
                 | Some code -> code
               in
               add_utf8 buf code
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false
    in
    if not (is_digit ()) then fail "malformed number";
    while is_digit () do
      advance ()
    done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      if not (is_digit ()) then fail "malformed number (missing fraction digits)";
      while is_digit () do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        if not (is_digit ()) then fail "malformed number (missing exponent)";
        while is_digit () do
          advance ()
        done
    | _ -> ());
    let lexeme = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string lexeme)
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> Float (float_of_string lexeme)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after document";
  v

let of_string s =
  match parse s with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" pos msg)
  | exception Failure msg -> Error (Printf.sprintf "JSON parse error: %s" msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let as_string = function String s -> Some s | _ -> None
let as_int = function Int i -> Some i | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let as_list = function Arr items -> items | _ -> []
