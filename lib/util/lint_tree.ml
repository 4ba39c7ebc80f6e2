(* A lightweight structural parser over the Lint_lexer token stream.

   churnet-lint's semantic rules need just enough structure to reason
   about dataflow and reachability: which let-bindings exist (with their
   parameters and nesting), which modules a file opens or aliases, and
   where lambdas and loops sit (a closure allocated per loop iteration
   is a very different animal from one allocated per call).

   The parser is a deliberate heuristic, not a grammar: it tracks
   bracket/block depth, classifies each `let' by whether its binding is
   eventually closed by `in' (expression let) or by the next structure
   item (top-level let), and records spans as inclusive token-index
   ranges.  Two hard guarantees, enforced by construction and checked by
   qcheck properties in the test suite:

   - totality: [parse] never raises, on any token stream (the cursor
     advances monotonically; malformed input degrades to coarser spans);
   - nesting: every recorded span lies within its parent binding's span,
     and every span's endpoints index real lexer tokens. *)

type span = { s_first : int; s_last : int }

type param_kind = Positional | Labelled | Optional

type param = { p_name : string; p_kind : param_kind }

type binding = {
  b_name : string;
  b_params : param list;
  b_module_path : string list;
  b_toplevel : bool;
  b_span : span;
  b_body : span;
  b_name_index : int;
}

type open_decl = { o_module : string; o_scope : span }

type t = {
  bindings : binding array;
  opens : open_decl array;
  aliases : (string * string) array;
  includes : string array;
  lambdas : span array;
  loops : span array;
}

let span_contains outer i = i >= outer.s_first && i <= outer.s_last

(* Internal mutable accumulator; converted to the immutable [t] at the
   end.  Bindings carry a mutable toplevel flag because a `let' chain's
   classification (expression vs structure item) is only known once its
   terminator is seen. *)
type builder = {
  mutable bs : pre_binding list;
  mutable ops : open_decl list;
  mutable als : (string * string) list;
  mutable incs : string list;
  mutable lams : span list;
  mutable lps : span list;
}

and pre_binding = {
  mutable pb_name : string;
  mutable pb_params : param list;
  pb_module_path : string list;
  mutable pb_toplevel : bool;
  mutable pb_first : int;
  mutable pb_last : int;
  mutable pb_body_first : int;
  mutable pb_body_last : int;
  mutable pb_name_index : int;
}

let keywords_starting_item =
  [ "module"; "type"; "open"; "include"; "exception"; "external"; "val";
    "class"; ";;" ]

let is_upper_ident s =
  String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

let is_lower_ident s =
  String.length s > 0
  && (s.[0] = '_' || (s.[0] >= 'a' && s.[0] <= 'z'))

(* How a scan of an expression / binding body stopped. *)
type stop =
  | Stop_in of int  (* index of the `in' token *)
  | Stop_and of int  (* index of the `and' token *)
  | Stop_item of int  (* index of the token that starts the next item *)
  | Stop_close of int  (* index of an unmatched closer (`end', `)', ...) *)
  | Stop_eof of int  (* first index past the last token *)

let parse (lex : Lint_lexer.t) =
  let tks = lex.Lint_lexer.tokens in
  let n = Array.length tks in
  let text i = if i >= 0 && i < n then tks.(i).Lint_lexer.text else "" in
  let b = { bs = []; ops = []; als = []; incs = []; lams = []; lps = [] } in
  (* Consume a balanced group starting at an opener token; returns the
     index just past the matching closer (or [n] when unbalanced).
     Openers/closers are depth-counted without kind matching: robustness
     over precision. *)
  let opener = function
    | "(" | "[" | "{" | "begin" | "struct" | "sig" | "object" | "do" -> true
    | _ -> false
  and closer = function
    | ")" | "]" | "}" | "end" | "done" -> true
    | _ -> false
  in
  let skip_group i =
    let depth = ref 0 in
    let j = ref i in
    let continue = ref true in
    while !continue && !j < n do
      let t = text !j in
      if opener t then incr depth
      else if closer t then begin
        decr depth;
        if !depth <= 0 then continue := false
      end;
      incr j
    done;
    !j
  in
  (* Parse a dotted module path [A.B.C] starting at [i]; returns the
     list of segments and the index past the path. *)
  let parse_module_path i =
    let segs = ref [] in
    let j = ref i in
    let continue = ref true in
    while !continue do
      if is_upper_ident (text !j) then begin
        segs := text !j :: !segs;
        if text (!j + 1) = "." && is_upper_ident (text (!j + 2)) then
          j := !j + 2
        else begin
          incr j;
          continue := false
        end
      end
      else continue := false
    done;
    (List.rev !segs, !j)
  in
  (* Parse the parameter list of a let binding: cursor just past the
     bound name, scan until the top-level [=] (or a terminator when the
     binding is malformed).  Returns (params, index of `=' + 1 or stop). *)
  let parse_params i =
    let params = ref [] in
    let j = ref i in
    let stopped = ref None in
    let continue = ref true in
    let add name kind = params := { p_name = name; p_kind = kind } :: !params in
    (* First lowercase identifier inside a group, as the conventional
       name of a pattern/annotated parameter. *)
    let group_param_name gfirst glast =
      let name = ref "_" in
      let k = ref (gfirst + 1) in
      while !name = "_" && !k < glast do
        if is_lower_ident (text !k) then name := text !k;
        incr k
      done;
      !name
    in
    while !continue && !j < n do
      let t = text !j in
      if t = "=" then begin
        incr j;
        continue := false
      end
      else if t = "~" || t = "?" then begin
        let kind = if t = "?" then Optional else Labelled in
        if is_lower_ident (text (!j + 1)) then begin
          add (text (!j + 1)) kind;
          j := !j + 2;
          (* ~name:pattern — the label is the parameter; skip the pattern *)
          if text !j = ":" then
            if text (!j + 1) = "(" then j := skip_group (!j + 1)
            else j := !j + 2
        end
        else if text (!j + 1) = "(" then begin
          (* ~(name : t) / ?(name = default) *)
          let stop = skip_group (!j + 1) in
          add (group_param_name (!j + 1) (stop - 1)) kind;
          j := stop
        end
        else incr j
      end
      else if t = "(" || t = "{" || t = "[" then begin
        let stop = skip_group !j in
        if t = "(" && text (!j + 1) = ")" then add "()" Positional
        else add (group_param_name !j (stop - 1)) Positional;
        j := stop
      end
      else if t = ":" then begin
        (* return-type annotation: skip type tokens up to the `=' *)
        let depth = ref 0 in
        let k = ref (!j + 1) in
        let scanning = ref true in
        while !scanning && !k < n do
          let u = text !k in
          if opener u then incr depth
          else if closer u then begin
            decr depth;
            if !depth < 0 then scanning := false
          end
          else if !depth = 0 && u = "=" then scanning := false
          else if !depth = 0 && (u = "in" || u = "let" || List.mem u keywords_starting_item)
          then scanning := false;
          if !scanning then incr k
        done;
        j := !k;
        if text !j = "=" then begin
          incr j;
          continue := false
        end
        else begin
          stopped := Some !j;
          continue := false
        end
      end
      else if is_lower_ident t then begin
        add t Positional;
        incr j
      end
      else if t = "in" || t = "and" || List.mem t keywords_starting_item
              || t = "let" || closer t || t = "" then begin
        stopped := Some !j;
        continue := false
      end
      else incr j
    done;
    (List.rev !params, !j, !stopped)
  in
  (* Forward declarations for the mutually recursive scanners. *)
  let rec parse_expr ~path ~from =
    (* Scan an expression starting at [from]; stop at a terminator at
       relative depth 0.  Records nested bindings, lambdas, loops and
       local opens found along the way.  Returns (stop, resume): the
       expression's last token is just before the stop index, and
       [resume] is where the caller should continue scanning — these
       differ only when a nested `let' turned out to be the next
       structure item, in which case the nested parse has already
       consumed (and recorded) that item so re-scanning it would both
       duplicate bindings and go quadratic. *)
    let depth = ref 0 in
    let i = ref from in
    let result = ref None in
    let resume_override = ref None in
    (* Lambda and loop spans close when depth drops below their base
       depth or when this expression stops. *)
    let lam_stack = ref [] in
    let loop_stack = ref [] in
    (* A lambda/loop opened at base depth [d] stays open while the
       current depth is >= d; it closes (span ending at [last]) when the
       group enclosing it closes, i.e. when depth drops below [d]. *)
    let close_spans_at ~last ~below =
      let keep, close = List.partition (fun (_, d) -> d <= below) !lam_stack in
      List.iter
        (fun (s, _) ->
          if last >= s then b.lams <- { s_first = s; s_last = last } :: b.lams)
        close;
      lam_stack := keep;
      let keep, close = List.partition (fun (_, d) -> d <= below) !loop_stack in
      List.iter
        (fun (s, _) ->
          if last >= s then b.lps <- { s_first = s; s_last = last } :: b.lps)
        close;
      loop_stack := keep
    in
    while !result = None && !i <= n do
      if !i >= n then result := Some (Stop_eof n)
      else begin
        let t = text !i in
        if t = "fun" || t = "function" then begin
          lam_stack := (!i, !depth) :: !lam_stack;
          incr i
        end
        else if t = "for" || t = "while" then begin
          loop_stack := (!i, !depth) :: !loop_stack;
          incr i
        end
        else if t = "let" then begin
          if text (!i + 1) = "open" then begin
            (* let open M in ... — scoped to the rest of this expression;
               the recorded scope is closed when the expression stops. *)
            let segs, past = parse_module_path (!i + 2) in
            (match segs with
            | [] -> ()
            | segs ->
                let last_seg = List.nth segs (List.length segs - 1) in
                b.ops <-
                  { o_module = last_seg; o_scope = { s_first = !i; s_last = n - 1 } }
                  :: b.ops);
            i := if text past = "in" then past + 1 else past
          end
          else if text (!i + 1) = "module" then begin
            (* let module X = ... in — skip the module expression *)
            let depth' = ref 0 in
            let k = ref (!i + 2) in
            let scanning = ref true in
            while !scanning && !k < n do
              let u = text !k in
              if opener u then incr depth'
              else if closer u then begin
                decr depth';
                if !depth' < 0 then scanning := false
              end
              else if !depth' = 0 && u = "in" then scanning := false;
              if !scanning then incr k
            done;
            i := if text !k = "in" then !k + 1 else !k
          end
          else begin
            let let_idx = !i in
            match parse_let ~path ~from:!i with
            | past, Stop_in _ -> i := past
            | past, (Stop_item _ | Stop_close _ | Stop_eof _ | Stop_and _) ->
                (* No `in' ever arrived: that `let' was really the next
                   structure item.  This expression ends just before it,
                   but the nested parse already consumed (and recorded)
                   the whole chain, so the caller resumes after it. *)
                resume_override := Some past;
                result := Some (Stop_item let_idx)
          end
        end
        else if opener t then begin
          (* Local open M.( ... ) *)
          (if t = "(" && text (!i - 1) = "." && is_upper_ident (text (!i - 2))
           then
             let stop = skip_group !i in
             b.ops <-
               {
                 o_module = text (!i - 2);
                 o_scope = { s_first = !i; s_last = max !i (stop - 1) };
               }
               :: b.ops);
          incr depth;
          incr i
        end
        else if closer t then begin
          decr depth;
          if !depth < 0 then result := Some (Stop_close !i)
          else begin
            (* [done] closes exactly the innermost loop opened at this
               depth; other closers only close constructs whose base
               depth sits strictly deeper than the new depth. *)
            (if t = "done" then
               match !loop_stack with
               | (s, d) :: rest when d = !depth ->
                   b.lps <- { s_first = s; s_last = !i } :: b.lps;
                   loop_stack := rest
               | _ -> ());
            close_spans_at ~last:!i ~below:!depth;
            incr i
          end
        end
        else if !depth = 0 && t = "in" then result := Some (Stop_in !i)
        else if !depth = 0 && t = "and" then result := Some (Stop_and !i)
        else if !depth = 0 && List.mem t keywords_starting_item then
          result := Some (Stop_item !i)
        else incr i
      end
    done;
    let stop = match !result with Some s -> s | None -> Stop_eof n in
    let stop_index =
      match stop with
      | Stop_in k | Stop_and k | Stop_item k | Stop_close k | Stop_eof k -> k
    in
    close_spans_at ~last:(max from (stop_index - 1)) ~below:(-1);
    let resume =
      match !resume_override with Some r -> r | None -> stop_index
    in
    (stop, resume)

  and parse_let ~path ~from =
    (* Cursor on a `let' (or chained `and').  Parses one binding and, on
       an `and' terminator, the rest of the chain.  Returns (index past
       everything consumed, final stop reason).  The chain's bindings
       are classified toplevel iff the final stop is not `in'. *)
    let chain = ref [] in
    let i = ref (from + 1) in
    if text !i = "rec" then incr i;
    let finished = ref None in
    let start = ref from in
    while !finished = None do
      (* name *)
      let name, name_index =
        let t = text !i in
        if is_lower_ident t then begin
          let idx = !i in
          incr i;
          (t, idx)
        end
        else if t = "(" && text (!i + 1) = ")" then begin
          let idx = !i in
          i := !i + 2;
          ("()", idx)
        end
        else if t = "(" then begin
          (* operator definition or tuple pattern: take the first inner
             token as the conventional name *)
          let idx = !i + 1 in
          let stop = skip_group !i in
          i := stop;
          (text idx, idx)
        end
        else if t = "{" || t = "[" then begin
          (* record / array pattern binding *)
          let idx = !i in
          i := skip_group !i;
          ("_", idx)
        end
        else begin
          let idx = !i in
          if t <> "" && t <> "=" then incr i;
          ("_", idx)
        end
      in
      let params, past_eq, param_stop = parse_params !i in
      let pb =
        {
          pb_name = name;
          pb_params = params;
          pb_module_path = path;
          pb_toplevel = false;
          pb_first = !start;
          pb_last = past_eq;
          pb_body_first = past_eq;
          pb_body_last = past_eq;
          pb_name_index = name_index;
        }
      in
      b.bs <- pb :: b.bs;
      chain := pb :: !chain;
      (match param_stop with
      | Some at ->
          (* Malformed binding (no `='): classify by what stopped it. *)
          pb.pb_last <- max !start (at - 1);
          pb.pb_body_first <- at;
          pb.pb_body_last <- max !start (at - 1);
          let t = text at in
          if t = "in" then begin
            finished := Some (at + 1, Stop_in at)
          end
          else if t = "and" then begin
            start := at;
            i := at + 1
          end
          else if at >= n then finished := Some (n, Stop_eof n)
          else finished := Some (at, Stop_item at)
      | None -> (
          i := past_eq;
          let stop, resume = parse_expr ~path ~from:past_eq in
          let stop_index =
            match stop with
            | Stop_in k | Stop_and k | Stop_item k | Stop_close k | Stop_eof k
              -> k
          in
          (* A body made only of literals contributes no tokens (the
             lexer drops them), leaving an empty span (first > last). *)
          pb.pb_body_last <- stop_index - 1;
          pb.pb_last <- max !start (stop_index - 1);
          match stop with
          | Stop_in k -> finished := Some (k + 1, stop)
          | Stop_and k ->
              start := k;
              i := k + 1
          | Stop_item _ | Stop_close _ | Stop_eof _ ->
              finished := Some (resume, stop)))
    done;
    let past, stop = match !finished with Some r -> r | None -> (n, Stop_eof n) in
    let is_toplevel = match stop with Stop_in _ -> false | _ -> true in
    List.iter (fun pb -> pb.pb_toplevel <- is_toplevel) !chain;
    (past, stop)
  in
  (* Structure items at one module level.  Returns the index past the
     level (past the `end' for submodules, [n] for the file). *)
  let rec parse_structure ~path ~from ~until_end =
    let i = ref from in
    let finished = ref false in
    while (not !finished) && !i < n do
      let t = text !i in
      if t = "let" then begin
        let past, _stop = parse_let ~path ~from:!i in
        i := max past (!i + 1)
      end
      else if t = "open" then begin
        let segs, past = parse_module_path (!i + 1) in
        (match segs with
        | [] -> ()
        | segs ->
            let last_seg = List.nth segs (List.length segs - 1) in
            b.ops <-
              { o_module = last_seg; o_scope = { s_first = !i; s_last = n - 1 } }
              :: b.ops);
        i := max past (!i + 1)
      end
      else if t = "include" then begin
        let segs, past = parse_module_path (!i + 1) in
        (match segs with
        | [] -> ()
        | segs -> b.incs <- List.nth segs (List.length segs - 1) :: b.incs);
        i := max past (!i + 1)
      end
      else if t = "module" && text (!i + 1) = "type" then begin
        (* module type X = sig ... end / abstract: skip to the next item *)
        i := skip_item (!i + 2)
      end
      else if t = "module" then begin
        let name = text (!i + 1) in
        (* scan past functor params / signature constraint to the `=' *)
        let k = ref (!i + 2) in
        let scanning = ref true in
        let depth = ref 0 in
        while !scanning && !k < n do
          let u = text !k in
          if opener u then incr depth
          else if closer u then decr depth
          else if !depth = 0 && u = "=" then scanning := false
          else if !depth = 0 && (u = "struct" || List.mem u keywords_starting_item || u = "let")
          then scanning := false;
          if !scanning then incr k
        done;
        if text !k = "=" && text (!k + 1) = "struct" then begin
          let past = parse_structure ~path:(path @ [ name ]) ~from:(!k + 2) ~until_end:true in
          i := past
        end
        else if text !k = "=" then begin
          (* module alias / functor application: record last segment *)
          let segs, past = parse_module_path (!k + 1) in
          (match segs with
          | [] -> ()
          | segs ->
              if is_upper_ident name then
                b.als <- (name, List.nth segs (List.length segs - 1)) :: b.als);
          i := max past (skip_item (!k + 1))
        end
        else i := skip_item (!i + 1)
      end
      else if t = "end" && until_end then begin
        i := !i + 1;
        finished := true
      end
      else i := skip_item !i
    done;
    !i
  and skip_item i =
    (* Consume a non-let structure item (type decl, exception, ...) up
       to the start of the next item at depth 0.  Stops *before* an
       unmatched closer so an enclosing [parse_structure] can see its
       `end'. *)
    let depth = ref 0 in
    let j = ref (min n (i + 1)) in
    let continue = ref true in
    while !continue && !j < n do
      let t = text !j in
      if opener t then begin
        incr depth;
        incr j
      end
      else if closer t then begin
        decr depth;
        if !depth < 0 then continue := false else incr j
      end
      else if !depth = 0 && (t = "let" || List.mem t keywords_starting_item)
      then continue := false
      else incr j
    done;
    max (i + 1) !j
  in
  let _ = parse_structure ~path:[] ~from:0 ~until_end:false in
  let clamp s =
    { s_first = max 0 (min s.s_first (max 0 (n - 1)));
      s_last = max 0 (min s.s_last (max 0 (n - 1))) }
  in
  let bindings =
    List.rev_map
      (fun pb ->
        {
          b_name = pb.pb_name;
          b_params = pb.pb_params;
          b_module_path = pb.pb_module_path;
          b_toplevel = pb.pb_toplevel;
          b_span = clamp { s_first = pb.pb_first; s_last = pb.pb_last };
          b_body = clamp { s_first = pb.pb_body_first; s_last = pb.pb_body_last };
          b_name_index = max 0 (min pb.pb_name_index (max 0 (n - 1)));
        })
      b.bs
  in
  {
    bindings = Array.of_list bindings;
    opens = Array.of_list (List.rev_map (fun o -> { o with o_scope = clamp o.o_scope }) b.ops);
    aliases = Array.of_list (List.rev b.als);
    includes = Array.of_list (List.rev b.incs);
    lambdas = Array.of_list (List.rev_map clamp b.lams);
    loops = Array.of_list (List.rev_map clamp b.lps);
  }

(* The innermost *toplevel* binding containing token [i]. *)
let enclosing_toplevel t i =
  let best = ref None in
  Array.iter
    (fun bd ->
      if bd.b_toplevel && span_contains bd.b_span i then
        match !best with
        | None -> best := Some bd
        | Some prev ->
            let w b = b.b_span.s_last - b.b_span.s_first in
            if w bd <= w prev then best := Some bd)
    t.bindings;
  !best

(* Is token [i] inside a lambda or loop that is itself nested inside
   another lambda or loop?  (I.e., would an allocation here happen per
   iteration rather than per call?) *)
let in_nested_lambda_or_loop t i =
  let containing =
    List.filter
      (fun s -> span_contains s i)
      (Array.to_list t.lambdas @ Array.to_list t.loops)
  in
  List.length containing >= 2
