open Ppxlib

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

let rule_syn = "QCA-SYN-000"
let rule_mut = "QCA-MUT-001"
let rule_lck = "QCA-LCK-002"
let rule_io = "QCA-IO-003"
let rule_hot = "QCA-HOT-004"
let rule_wvr = "QCA-WVR-005"

let rule_catalogue =
  [
    (rule_syn, "file does not parse; the analyzer cannot vouch for it");
    ( rule_mut,
      "top-level mutable state must be Atomic, mutex-guarded, or carry \
       [@@qca.domain_safe \"why\"]" );
    ( rule_lck,
      "no blocking calls inside a Mutex.lock..unlock span (Condition.wait \
       is allowed: it releases the mutex)" );
    ( rule_io,
      "raw data-plane Unix syscalls in lib/serve must go through Io's \
       EINTR-retrying helpers" );
    ( rule_hot,
      "no Printf/Format, Trace spans, Array.blit or Array.sort in regions \
       marked [@qca.hot]; Ring.record and Metrics updates are hot-safe" );
    ( rule_wvr,
      "waivers must carry a justification: [@@qca.domain_safe \"reason\"] \
       or [@@qca.waive \"QCA-XXX-NNN: reason\"]" );
  ]

let known_rules = List.map fst rule_catalogue

(* {1 Name tables} *)

(* Constructors of synchronisation primitives: allocating one at top
   level is the *point* of the module-level discipline. Their argument
   lists (labels, capacities) never hide state, so the scan does not
   descend into them. *)
let safe_ctors =
  [
    "Atomic.make";
    "Mutex.create";
    "Condition.create";
    "Semaphore.Counting.make";
    "Semaphore.Binary.make";
    "Domain.DLS.new_key";
  ]

(* Allocators of shared mutable state when reached from a top-level
   binding outside any [fun]. *)
let alloc_ctors =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Weak.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.init";
    "Array.create_float";
  ]

(* Calls that can park the calling domain indefinitely. *)
let blocking_calls =
  [
    "Unix.read";
    "Unix.write";
    "Unix.write_substring";
    "Unix.single_write";
    "Unix.recv";
    "Unix.send";
    "Unix.recvfrom";
    "Unix.sendto";
    "Unix.select";
    "Unix.accept";
    "Unix.connect";
    "Unix.sleep";
    "Unix.sleepf";
    "Thread.delay";
    "Domain.join";
    "Chan.pop";
    "Qca_par.Chan.pop";
    "Io.read_exact";
    "Io.write_all";
    "Pool.parallel_map";
    "Qca_par.Pool.parallel_map";
  ]

(* A condition wait releases the mutex; it is the one legitimate way
   to block under a lock. *)
let wait_calls = [ "Condition.wait" ]

let lock_calls = [ "Mutex.lock" ]

let unlock_calls = [ "Mutex.unlock" ]

(* Raw data-plane syscalls that [lib/serve] must reach through [Io]. *)
let raw_syscalls =
  [
    "Unix.read";
    "Unix.write";
    "Unix.write_substring";
    "Unix.single_write";
    "Unix.recv";
    "Unix.send";
  ]

let print_prefixes = [ "Printf."; "Format." ]

(* Span machinery allocates (the open-span stack, the closure, the
   args) and interns the span name under the kind lock — fine around a
   solve, not inside its inner loops. *)
let trace_calls =
  [
    "Trace.span";
    "Trace.begin_span";
    "Trace.end_span";
    "Qca_obs.Trace.span";
    "Qca_obs.Trace.begin_span";
    "Qca_obs.Trace.end_span";
  ]

(* Array primitives that cost more than they look in a hot loop:
   [Array.blit] into a major-heap array pays the write barrier per
   element even for ints ([Arena.blit_ints] does not), and the sorts
   are O(n log n) through a comparison closure. *)
let hot_array_calls =
  [ "Array.blit"; "Array.sort"; "Array.stable_sort"; "Array.fast_sort" ]

(* The observability calls designed for hot regions: one predictable
   branch when off, lock-free when on. Named so the rule's intent is
   auditable, and exempted explicitly should they ever pattern-match a
   banned prefix. *)
let hot_safe =
  [
    "Ring.record";
    "Qca_obs.Ring.record";
    "Obs.incr";
    "Obs.add";
    "Obs.set";
    "Obs.observe";
    "Metrics.incr";
    "Metrics.add";
    "Metrics.set";
    "Metrics.observe";
    "Qca_obs.Metrics.incr";
    "Qca_obs.Metrics.add";
    "Qca_obs.Metrics.set";
    "Qca_obs.Metrics.observe";
  ]

let print_calls =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "output_string";
  ]

(* {1 Per-file linting} *)

type ctx = {
  path : string;
  serve_scoped : bool;  (* QCA-IO-003 applies to this file *)
  waived : string list;  (* rule ids waived on the current path *)
  hot : bool;  (* inside a [@qca.hot] region *)
  (* record types declared in this file: (all labels, mutable labels).
     Literals are matched by label-set inclusion so an immutable record
     sharing a label name with an unrelated mutable one (config.workers
     vs. the server-state [mutable workers]) is not flagged. *)
  record_types : (string list * string list) list;
  add : finding -> unit;
}

let report ctx ~loc rule msg =
  let p = loc.Location.loc_start in
  ctx.add
    {
      f_file = ctx.path;
      f_line = p.Lexing.pos_lnum;
      f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      f_rule = rule;
      f_msg = msg;
    }

let waived ctx rule = List.mem rule ctx.waived

let rec lid_to_list = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> lid_to_list l @ [ s ]
  | Lapply _ -> []

let head_name f =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match lid_to_list txt with
    | [] -> None
    | parts -> Some (String.concat "." parts))
  | _ -> None

let apply_head e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> head_name f
  | _ -> None

(* {2 Waiver attributes} *)

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* Folds an attribute list into the context: qca.hot arms the hot-loop
   rule, qca.domain_safe waives QCA-MUT-001, qca.waive "RULE: why"
   waives RULE. Malformed waivers are themselves findings (they still
   suppress, so the fix is to write the justification, not to chase a
   cascade of secondary findings). *)
let extend_ctx ctx (attrs : attributes) =
  List.fold_left
    (fun ctx (attr : attribute) ->
      let loc = attr.attr_loc in
      match attr.attr_name.txt with
      | "qca.hot" -> { ctx with hot = true }
      | "qca.domain_safe" ->
        (match string_payload attr with
        | Some s when String.trim s <> "" -> ()
        | _ ->
          report ctx ~loc rule_wvr
            "qca.domain_safe waiver without a justification string: say \
             which mutex guards the state, or why unguarded access is safe");
        { ctx with waived = rule_mut :: ctx.waived }
      | "qca.waive" -> (
        let malformed why =
          report ctx ~loc rule_wvr ("malformed qca.waive: " ^ why);
          ctx
        in
        match string_payload attr with
        | None -> malformed "expected a string payload \"QCA-XXX-NNN: reason\""
        | Some s -> (
          match String.index_opt s ':' with
          | None -> malformed "missing \": reason\" after the rule id"
          | Some i ->
            let rule = String.trim (String.sub s 0 i) in
            let reason =
              String.trim (String.sub s (i + 1) (String.length s - i - 1))
            in
            if not (List.mem rule known_rules) then
              malformed (Printf.sprintf "unknown rule id %S" rule)
            else if reason = "" then malformed "empty justification"
            else { ctx with waived = rule :: ctx.waived }))
      | _ -> ctx)
    ctx attrs

(* {2 QCA-MUT-001: top-level mutable allocations}

   Scans a top-level binding's right-hand side outside any [fun] (a
   function body allocates per call). *)
let rec scan_top_alloc ctx e =
  let descend = scan_top_alloc ctx in
  match e.pexp_desc with
  | Pexp_function _ -> ()
  | Pexp_apply (f, args) -> (
    match head_name f with
    | Some h when List.mem h safe_ctors -> ()
    | Some h when List.mem h alloc_ctors ->
      report ctx ~loc:e.pexp_loc rule_mut
        (Printf.sprintf
           "top-level mutable state (%s): guard it with a mutex or Atomic.t \
            and waive with [@@qca.domain_safe \"...\"], or move it into a \
            function"
           h);
      List.iter (fun (_, a) -> descend a) args
    | _ ->
      descend f;
      List.iter (fun (_, a) -> descend a) args)
  | Pexp_record (fields, base) ->
    let lit_labels =
      List.filter_map
        (fun ({ txt; _ }, _) ->
          match List.rev (lid_to_list txt) with
          | last :: _ -> Some last
          | [] -> None)
        fields
    in
    let matching =
      List.filter
        (fun (labels, _) ->
          List.for_all (fun l -> List.mem l labels) lit_labels)
        ctx.record_types
    in
    let muts =
      match matching with
      | [] ->
        (* type declared elsewhere: fall back to the per-label check *)
        List.filter
          (fun l ->
            List.exists (fun (_, ms) -> List.mem l ms) ctx.record_types)
          lit_labels
      | _ ->
        (* ambiguous label sets resolve in favour of a fully immutable
           candidate; otherwise report the mutable labels of the match *)
        if List.exists (fun (_, ms) -> ms = []) matching then []
        else
          List.sort_uniq compare
            (List.concat_map (fun (_, ms) -> ms) matching)
    in
    if muts <> [] then
      report ctx ~loc:e.pexp_loc rule_mut
        (Printf.sprintf
           "top-level record literal with mutable field%s %s: shared across \
            domains; guard it or waive with [@@qca.domain_safe \"...\"]"
           (if List.length muts > 1 then "s" else "")
           (String.concat ", " muts));
    List.iter (fun (_, v) -> descend v) fields;
    Option.iter descend base
  | Pexp_array es ->
    report ctx ~loc:e.pexp_loc rule_mut
      "top-level array literal: arrays are mutable and shared across \
       domains; guard it or waive with [@@qca.domain_safe \"...\"]";
    List.iter descend es
  | Pexp_let (_, vbs, body) ->
    List.iter (fun vb -> descend vb.pvb_expr) vbs;
    descend body
  | Pexp_sequence (a, b) ->
    descend a;
    descend b
  | Pexp_ifthenelse (c, t, e') ->
    descend c;
    descend t;
    Option.iter descend e'
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
    descend s;
    List.iter (fun c -> descend c.pc_rhs) cases
  | Pexp_tuple es -> List.iter descend es
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> descend a
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) -> descend a
  | Pexp_open (_, a) | Pexp_letmodule (_, _, a) | Pexp_lazy a -> descend a
  | _ -> ()

(* {2 Expression walk: QCA-LCK-002, QCA-IO-003, QCA-HOT-004} *)

(* Generic child traversal: the ppxlib default iterator dispatches
   subexpressions back through the closure, so custom handling stays in
   [iter_expr] and everything else is covered structurally. *)
let on_children f e =
  let o =
    object
      inherit Ast_traverse.iter as super
      method! expression e' = f e'
      method children e' = super#expression e'
    end
  in
  o#children e

let contains_head names e =
  let found = ref false in
  let rec go e =
    (match apply_head e with
    | Some h when List.mem h names -> found := true
    | _ -> ());
    if not !found then on_children go e
  in
  go e;
  !found

(* Deep scan of an expression executed while a mutex is held. Descends
   into lambdas: the dominant under-lock closure in this codebase is an
   immediately-run [Fun.protect] body. *)
let rec scan_blocking ctx e =
  (match apply_head e with
  | Some h when List.mem h wait_calls -> ()
  | Some h when List.mem h blocking_calls ->
    report ctx ~loc:e.pexp_loc rule_lck
      (Printf.sprintf
         "%s can block while a mutex is held: release the lock first, or \
          use Condition.wait (which releases it)"
         h)
  | _ -> ());
  on_children (scan_blocking ctx) e

(* Statement chain of an expression: sequence elements in execution
   order, looking through let-bindings so an unlock buried in a [let
   .. in] body still closes the held span. *)
let rec flatten_chain e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> flatten_chain a @ flatten_chain b
  | Pexp_let (_, vbs, body) ->
    List.concat_map (fun vb -> flatten_chain vb.pvb_expr) vbs
    @ flatten_chain body
  | Pexp_constraint (a, _) | Pexp_open (_, a) -> flatten_chain a
  | _ -> [ e ]

let rec iter_expr ctx e =
  let ctx = extend_ctx ctx e.pexp_attributes in
  (match apply_head e with
  | Some h when List.mem h hot_safe -> ()
  | Some h ->
    if
      ctx.hot
      && (not (waived ctx rule_hot))
      && (List.exists (fun p -> String.length h > String.length p
                                && String.sub h 0 (String.length p) = p)
            print_prefixes
         || List.mem h print_calls)
    then
      report ctx ~loc:e.pexp_loc rule_hot
        (Printf.sprintf
           "%s inside a [@qca.hot] region: formatting allocates and takes \
            the channel lock; hoist it out of the hot loop or record a \
            metric instead"
           h);
    if ctx.hot && (not (waived ctx rule_hot)) && List.mem h trace_calls then
      report ctx ~loc:e.pexp_loc rule_hot
        (Printf.sprintf
           "%s inside a [@qca.hot] region: spans allocate and intern \
            their name under a lock; use the flight recorder \
            (Ring.record) or a metric instead"
           h);
    if ctx.hot && (not (waived ctx rule_hot)) && List.mem h hot_array_calls
    then
      report ctx ~loc:e.pexp_loc rule_hot
        (Printf.sprintf
           "%s inside a [@qca.hot] region: blits into int arrays pay the \
            write barrier per element and sorts pay a comparison closure \
            per step; use Arena.blit_ints, or merge runs that are already \
            sorted"
           h);
    if
      ctx.serve_scoped
      && (not (waived ctx rule_io))
      && List.mem h raw_syscalls
    then
      report ctx ~loc:e.pexp_loc rule_io
        (Printf.sprintf
           "raw %s in lib/serve: use the EINTR-retrying Io helpers \
            (Io.read_exact / Io.read_chunk / Io.write_all)"
           h)
  | None -> ());
  match e.pexp_desc with
  | Pexp_sequence _ | Pexp_let _ -> lint_chain ctx (flatten_chain e)
  | _ -> on_children (iter_expr ctx) e

(* Tracks the held-mutex span through a statement chain. An element
   that *contains* an unlock (e.g. a [Fun.protect ~finally:unlock]
   wrapper, or an if-branch) closes the span after the element — the
   element itself still executes under the lock and is scanned. *)
and lint_chain ctx elems =
  let held = ref false in
  List.iter
    (fun el ->
      match apply_head el with
      | Some h when List.mem h lock_calls ->
        iter_expr ctx el;
        held := true
      | Some h when List.mem h unlock_calls ->
        iter_expr ctx el;
        held := false
      | _ ->
        if !held && not (waived ctx rule_lck) then scan_blocking ctx el;
        iter_expr ctx el;
        if !held && contains_head unlock_calls el then held := false)
    elems

(* {2 Structure walk} *)

let lint_top_binding ctx vb =
  let ctx =
    extend_ctx
      (extend_ctx ctx vb.pvb_attributes)
      vb.pvb_expr.pexp_attributes
  in
  if not (waived ctx rule_mut) then scan_top_alloc ctx vb.pvb_expr;
  iter_expr ctx vb.pvb_expr

let rec lint_structure ctx items = List.iter (lint_item ctx) items

and lint_item ctx si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) -> List.iter (lint_top_binding ctx) vbs
  | Pstr_eval (e, attrs) -> iter_expr (extend_ctx ctx attrs) e
  | Pstr_module mb -> lint_module (extend_ctx ctx mb.pmb_attributes) mb.pmb_expr
  | Pstr_recmodule mbs ->
    List.iter
      (fun mb -> lint_module (extend_ctx ctx mb.pmb_attributes) mb.pmb_expr)
      mbs
  | Pstr_include incl -> lint_module ctx incl.pincl_mod
  | Pstr_attribute attr -> ignore (extend_ctx ctx [ attr ])
  | _ -> ()

and lint_module ctx me =
  match me.pmod_desc with
  | Pmod_structure items -> lint_structure ctx items
  | Pmod_functor (_, body) -> lint_module ctx body
  | Pmod_constraint (m, _) -> lint_module ctx m
  | Pmod_ident _ | Pmod_apply _ | Pmod_apply_unit _ | Pmod_unpack _
  | Pmod_extension _ ->
    ()

(* {1 Entry points} *)

let normalize_path p =
  String.concat "/" (String.split_on_char '\\' p)

let serve_scoped_path path =
  let p = normalize_path path in
  let in_serve =
    let needle = "lib/serve/" in
    let n = String.length needle and l = String.length p in
    let rec at i = i + n <= l && (String.sub p i n = needle || at (i + 1)) in
    at 0
  in
  in_serve && Filename.basename p <> "io.ml"

let collect_record_types str =
  let acc = ref [] in
  let o =
    object
      inherit Ast_traverse.iter as super
      method! type_declaration td =
        (match td.ptype_kind with
        | Ptype_record lds ->
          let labels = List.map (fun ld -> ld.pld_name.txt) lds in
          let mutables =
            List.filter_map
              (fun ld ->
                match ld.pld_mutable with
                | Mutable -> Some ld.pld_name.txt
                | Immutable -> None)
              lds
          in
          acc := (labels, mutables) :: !acc
        | _ -> ());
        super#type_declaration td
    end
  in
  o#structure str;
  !acc

let lint_source ~path src =
  let acc = ref [] in
  let parsed =
    let lexbuf = Lexing.from_string src in
    Lexing.set_filename lexbuf path;
    try Ok (Parse.implementation lexbuf) with e -> Error e
  in
  (match parsed with
  | Error e ->
    let line, col, msg =
      match Location.Error.of_exn e with
      | Some err ->
        let loc = Location.Error.get_location err in
        ( loc.loc_start.pos_lnum,
          loc.loc_start.pos_cnum - loc.loc_start.pos_bol,
          Location.Error.message err )
      | None -> (1, 0, Printexc.to_string e)
    in
    acc :=
      [
        {
          f_file = path;
          f_line = line;
          f_col = col;
          f_rule = rule_syn;
          f_msg = "parse error: " ^ msg;
        };
      ]
  | Ok str ->
    let ctx =
      {
        path;
        serve_scoped = serve_scoped_path path;
        waived = [];
        hot = false;
        record_types = collect_record_types str;
        add = (fun f -> acc := f :: !acc);
      }
    in
    lint_structure ctx str);
  List.rev !acc

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> lint_source ~path src
  | exception Sys_error msg ->
    [
      {
        f_file = path;
        f_line = 1;
        f_col = 0;
        f_rule = rule_syn;
        f_msg = "cannot read file: " ^ msg;
      };
    ]

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry.[0] = '_' then acc
        else walk (Filename.concat path entry) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths paths =
  let files =
    List.sort_uniq compare (List.fold_left (fun acc p -> walk p acc) [] paths)
  in
  List.concat_map lint_file files
  |> List.sort (fun a b ->
         compare
           (a.f_file, a.f_line, a.f_col, a.f_rule)
           (b.f_file, b.f_line, b.f_col, b.f_rule))

(* {1 Reporters} *)

let pp_text fmt findings =
  List.iter
    (fun f ->
      Format.fprintf fmt "%s:%d:%d: [%s] %s@." f.f_file f.f_line f.f_col
        f.f_rule f.f_msg)
    findings

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json findings =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \
            \"%s\", \"message\": \"%s\"}"
           (json_escape f.f_file) f.f_line f.f_col (json_escape f.f_rule)
           (json_escape f.f_msg)))
    findings;
  Buffer.add_string buf (if findings = [] then "]\n" else "\n]\n");
  Buffer.contents buf
