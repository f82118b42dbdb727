(** File discovery, parsing, and report rendering for bfc-lint. *)

(** Path → which rule families apply. Dataplane scope is the modules that
    hold per-packet code: the compiled dataplane ([lib/ir/compile.ml]), the
    pause/credit handling it shares with host NICs
    ([lib/bfc/dataplane.ml], [lib/bfc/credit_dataplane.ml]), and the
    per-packet stress/obs/PDES paths; lib scope is any file under a [lib/]
    directory segment. *)
val scope_of_path : string -> Check.scope

(** Lint one source text. [virtual_path] overrides [path] for scope
    classification and reporting (fixture tests lint files as if they lived
    on a dataplane path). Returns findings paired with their suppression
    status, or a parse-failure reason. *)
val lint_source :
  ?virtual_path:string -> path:string -> string -> ((Diagnostic.t * bool) list, string) result

type report = {
  files : int;
  findings : (Diagnostic.t * bool) list;
  failures : (string * string) list;
}

(** Walk the given files/directories (recursively, [.ml] only, skipping
    [_build] and dot-dirs) and lint each. *)
val lint_paths : string list -> report

(** Unsuppressed findings. *)
val violations : report -> Diagnostic.t list

(** Findings covered by an allow comment. *)
val suppressed : report -> Diagnostic.t list

(** 0 clean, 1 violations, 2 parse/IO failures. *)
val exit_code : report -> int

val render_human : ?show_suppressed:bool -> report -> string

val render_json : report -> string

(** The rule table, one line per rule. *)
val render_rules : unit -> string
