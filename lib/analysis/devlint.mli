(** qca-devlint: domain-safety and concurrency-discipline linter over
    the project's own [.ml] sources.

    The analyzer parses each file with the compiler front end (via
    ppxlib's version-stable copy of the parser, so one binary lints the
    tree identically on every switch in CI, the TSan 5.2 switch
    included) and enforces the rule catalogue below. Findings carry
    file:line:column, a stable rule id, and a message; the tree is kept
    lint-clean, so any finding is a regression.

    {2 Rule catalogue}

    - [QCA-MUT-001] {e top-level mutable state}: a module-level binding
      that allocates shared mutable state — [ref], [Hashtbl.create],
      [Buffer.create], [Queue.create], [Stack.create], [Bytes.create],
      [Array.make]/[init], an array literal, or a record literal with
      fields declared [mutable] in the same file — is reachable from
      every domain. It must be an [Atomic.t], or carry
      [[@@qca.domain_safe "which mutex guards it / why it is safe"]].
      Synchronisation primitives themselves ([Mutex.create],
      [Condition.create], [Atomic.make], [Lockcheck.create],
      [Domain.DLS.new_key]) are exempt; allocations under a [fun] are
      per-call and exempt.
    - [QCA-LCK-002] {e blocking call under a held mutex}: between
      [Mutex.lock]/[Lockcheck.lock] and the matching unlock in a
      statement sequence, calls that can block indefinitely
      ([Unix.read]/[write]/[recv]/[send]/[select]/[accept]/[connect],
      [Unix.sleep]f, [Domain.join], [Chan.push]/[pop],
      [Io.read_exact]/[write_all], [Pool.parallel_map]) are forbidden.
      [Condition.wait]/[Lockcheck.wait] are allowed — a wait releases
      the mutex.
    - [QCA-IO-003] {e raw data-plane syscall in lib/serve}: outside
      [io.ml], the serve library must reach [Unix.read]/[write]/
      [write_substring]/[single_write]/[recv]/[send] only through
      [Io]'s EINTR-retrying helpers.
    - [QCA-HOT-004] {e formatting or hidden cost in a hot loop}:
      inside a function or expression marked [[@qca.hot]],
      [Printf.*]/[Format.*] and the [print_]/[prerr_] family are
      forbidden (they allocate and take the runtime lock on channels),
      and so are [Trace] spans, [Array.blit] (a write barrier per
      element into the major heap, even for ints) and the [Array]
      sorts.
    - [QCA-WVR-005] {e malformed waiver}: every waiver must carry a
      justification — [[@@qca.domain_safe "reason"]] with a non-empty
      string, or [[@@qca.waive "QCA-XXX-NNN: reason"]] naming a known
      rule id.
    - [QCA-SYN-000] {e parse failure}: the file does not parse; the
      analyzer cannot vouch for it.

    {2 Waiver syntax}

    [[@@qca.domain_safe "guarded by rec_m"]] on a binding waives
    [QCA-MUT-001] for it. [[@@qca.waive "QCA-LCK-002: <why>"]] waives
    the named rule on the attributed binding or expression subtree.
    [[@qca.hot]] marks a hot region for [QCA-HOT-004]. *)

type finding = {
  f_file : string;
  f_line : int;  (** 1-based *)
  f_col : int;  (** 0-based, as the compiler reports columns *)
  f_rule : string;  (** stable id, e.g. ["QCA-MUT-001"] *)
  f_msg : string;
}

val rule_catalogue : (string * string) list
(** [(id, one-line description)] for every rule, [QCA-SYN-000] included. *)

val lint_source : path:string -> string -> finding list
(** Lint one compilation unit given as source text. [path] provides the
    reported file name and drives the path-scoped rules ([QCA-IO-003]
    applies under [lib/serve/], except [io.ml]). *)

val lint_file : string -> finding list
(** Read and lint one [.ml] file ([QCA-SYN-000] if unreadable). *)

val lint_paths : string list -> finding list
(** Lint files and directory trees (recursively, every [.ml] file;
    [_build], [.git] and other [_]/[.]-prefixed directories are
    skipped). Findings are sorted by file, line, column, rule. *)

val pp_text : Format.formatter -> finding list -> unit
(** One [file:line:col: [RULE] message] line per finding. *)

val to_json : finding list -> string
(** The findings as a JSON array of
    [{"file", "line", "col", "rule", "message"}] objects. *)
