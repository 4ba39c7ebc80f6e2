(** churnet-lint driver: file discovery, the shared per-file parse
    cache, suppression pragmas, baseline bookkeeping and report
    assembly.

    Every scanned file is read, lexed and (for [.ml]) structurally
    parsed exactly once; file rules, project rules (symbol index + call
    graph via {!Lint_graph}), pragma parsing and syntax diagnostics all
    consume that one parse, so adding rules does not add file I/O.

    Suppression pragmas live in ordinary comments (in [.ml] {e and}
    [.mli] files):

    {v
    (* lint: allow <rule> — reason *)        suppress on this and the next line
    (* lint: allow-file <rule> — reason *)   suppress in the whole file
    v}

    A pragma must name a known rule and carry a non-empty reason (after
    an optional "—" or "--" separator); otherwise it is itself reported
    under the synthetic rule [bad-pragma].  A pragma that suppresses
    {e nothing} is reported under [unused-pragma], so suppressions
    expire with the code they excused.  Lexer-level damage
    (unterminated comment or string — i.e. a silently truncated scan)
    is reported under the synthetic rule [bad-syntax] at the position
    of the offending opener.

    The baseline file grandfathers known findings: one [rule file:line]
    entry per line, ['#'] comments allowed.  Findings matching a
    baseline entry do not fail the run; baseline entries that no longer
    fire are reported as {e expired} so the file shrinks monotonically
    to empty. *)

type config = {
  paths : string list;  (** files or directories to scan *)
  root : string option;
      (** interpret [paths] (and report findings) relative to this
          directory; rules key off repo-relative prefixes like "lib/",
          so fixture trees are linted with their own root *)
  baseline_path : string option;
  json_path : string option;
      (** write a [churnet-lint/2] report here: each finding carries its
          rule's one-line doc and (for graph rules) the witness call
          path *)
  update_baseline : bool;
      (** rewrite the baseline to exactly the current findings *)
}

type baseline_entry = { b_rule : string; b_file : string; b_line : int }

type outcome = {
  findings : Lint_rules.finding list;
      (** new findings (not baselined, not suppressed), sorted *)
  baselined : int;  (** findings absorbed by the baseline *)
  suppressed : int;  (** findings silenced by pragmas *)
  expired : baseline_entry list;  (** baseline entries that no longer fire *)
  files_scanned : int;  (** [.ml] and [.mli] files *)
}

val run : config -> (outcome, string) result
(** Scan, lint, apply pragmas and baseline, and honor [json_path] /
    [update_baseline].  [Error msg] reports unusable inputs (missing
    path, malformed baseline); it never raises. *)

val render : outcome -> string
(** Human-readable report: one
    [file:line:col: [rule] message [path: A -> B]] line per finding
    plus a summary line (and expired-baseline notices). *)

val exit_code : outcome -> int
(** [0] when {!outcome.findings} is empty, [1] otherwise. *)
