(** A lightweight structural parser over the {!Lint_lexer} token stream.

    churnet-lint's semantic rules need just enough structure to reason
    about dataflow and reachability: which let-bindings exist (with
    their parameters, module path and nesting), which modules a file
    opens, aliases or includes, and where lambdas and loops sit.

    The parser is a deliberate heuristic, not a grammar: it tracks
    bracket/block depth, classifies each [let] by whether its binding
    is eventually closed by [in] (expression let) or by the next
    structure item (top-level let), and records spans as inclusive
    token-index ranges into [lex.tokens].

    Two hard guarantees, checked by qcheck properties in the test
    suite:

    - totality: {!parse} never raises, on any token stream (the cursor
      advances monotonically; malformed input degrades to coarser
      spans);
    - validity: every recorded span satisfies
      [0 <= s_first] and [s_last <= Array.length lex.tokens - 1], and a
      binding's body span lies within its binding span. *)

type span = {
  s_first : int;  (** first token index of the construct (inclusive) *)
  s_last : int;  (** last token index (inclusive) *)
}

type param_kind = Positional | Labelled | Optional

type param = {
  p_name : string;  (** parameter name; ["_"] or ["()"] when patterned *)
  p_kind : param_kind;
}

type binding = {
  b_name : string;  (** bound name; ["_"]/["()"] for pattern bindings *)
  b_params : param list;  (** parameters, in source order *)
  b_module_path : string list;
      (** enclosing submodule path within the file, outermost first *)
  b_toplevel : bool;  (** structure item (no closing [in])? *)
  b_span : span;  (** whole binding, from its [let]/[and] *)
  b_body : span;
      (** the right-hand side after [=]; may be {e empty}
          ([s_first > s_last]) when the body is literal-only, since
          literals contribute no lexer tokens *)
  b_name_index : int;  (** token index of the bound name *)
}

type open_decl = {
  o_module : string;  (** last segment of the opened path *)
  o_scope : span;  (** tokens where the open is in force *)
}

type t = {
  bindings : binding array;
  opens : open_decl array;
  aliases : (string * string) array;
      (** [module A = B] aliases: (alias, last segment of target) *)
  includes : string array;  (** last segments of [include]d paths *)
  lambdas : span array;  (** [fun]/[function] expressions *)
  loops : span array;  (** [for]/[while] loops *)
}

val parse : Lint_lexer.t -> t
(** [parse lex] builds the structural summary of a token stream.  Total:
    never raises, whatever the input. *)

val span_contains : span -> int -> bool
(** [span_contains s i] is true when token index [i] lies in [s]. *)

val enclosing_toplevel : t -> int -> binding option
(** Innermost {e top-level} binding whose span contains token [i] — the
    unit of the call graph. *)

val in_nested_lambda_or_loop : t -> int -> bool
(** Is token [i] inside a lambda or loop that is itself nested inside
    another lambda or loop (i.e. the code here runs per iteration of an
    enclosing construct, not just per call)? *)
