(* qca-devlint analyzer: one failing fixture per rule class, waiver
   honouring, and clean passes on the idioms the tree actually uses. *)

module Devlint = Qca_analysis.Devlint

let rules_of ?(path = "lib/x/fixture.ml") src =
  List.map (fun f -> f.Devlint.f_rule) (Devlint.lint_source ~path src)

let check_rules name ~expect ?path src =
  Alcotest.(check (list string)) name expect (rules_of ?path src)

(* {1 QCA-MUT-001: top-level mutable state} *)

let test_mut_ref () =
  check_rules "bare top-level ref" ~expect:[ "QCA-MUT-001" ] "let x = ref 0\n"

let test_mut_hashtbl () =
  check_rules "top-level Hashtbl" ~expect:[ "QCA-MUT-001" ]
    "let tbl = Hashtbl.create 16\n"

let test_mut_array_literal () =
  check_rules "top-level array literal" ~expect:[ "QCA-MUT-001" ]
    "let a = [| 1; 2; 3 |]\n"

let test_mut_record_literal () =
  check_rules "record literal with same-file mutable field"
    ~expect:[ "QCA-MUT-001" ]
    "type t = { mutable n : int; name : string }\n\
     let shared = { n = 0; name = \"x\" }\n"

let test_mut_label_collision_clean () =
  (* an immutable record type sharing a label name with an unrelated
     mutable type must not be flagged (config.workers vs. the
     server-state [mutable workers]) *)
  check_rules "label collision across record types" ~expect:[]
    "type state = { mutable workers : int list; mutable acceptor : int }\n\
     type config = { workers : int; host : string }\n\
     let default = { workers = 2; host = \"localhost\" }\n"

let test_mut_atomic_clean () =
  check_rules "Atomic / Mutex / DLS constructors are exempt" ~expect:[]
    "let a = Atomic.make 0\n\
     let m = Mutex.create ()\n\
     let cv = Condition.create ()\n\
     let k = Domain.DLS.new_key (fun () -> ref [])\n"

let test_mut_under_fun_clean () =
  check_rules "allocation under a fun is per-call" ~expect:[]
    "let fresh () = ref 0\nlet table () = Hashtbl.create 4\n"

let test_mut_waived () =
  check_rules "domain_safe waiver suppresses MUT-001" ~expect:[]
    "let x = ref 0 [@@qca.domain_safe \"guarded by state_m\"]\n"

(* {1 QCA-LCK-002: blocking under a held mutex} *)

let test_lck_blocking_under_lock () =
  check_rules "Unix.read inside lock..unlock" ~expect:[ "QCA-LCK-002" ]
    "let m = Mutex.create ()\n\
     let f fd buf =\n\
    \  Mutex.lock m;\n\
    \  ignore (Unix.read fd buf 0 1);\n\
    \  Mutex.unlock m\n"

let test_lck_unlock_first_clean () =
  check_rules "blocking call after unlock" ~expect:[]
    "let m = Mutex.create ()\n\
     let f fd buf =\n\
    \  Mutex.lock m;\n\
    \  Mutex.unlock m;\n\
    \  ignore (Unix.read fd buf 0 1)\n"

let test_lck_condition_wait_allowed () =
  check_rules "Condition.wait releases the mutex" ~expect:[]
    "let m = Mutex.create ()\n\
     let cv = Condition.create ()\n\
     let f () =\n\
    \  Mutex.lock m;\n\
    \  Condition.wait cv m;\n\
    \  Mutex.unlock m\n"

(* {1 QCA-IO-003: raw syscalls in lib/serve} *)

let raw_read_src =
  "let f fd buf = ignore (Unix.read fd buf 0 1)\n"

let test_io_serve_flagged () =
  check_rules "raw Unix.read under lib/serve" ~path:"lib/serve/worker.ml"
    ~expect:[ "QCA-IO-003" ] raw_read_src

let test_io_elsewhere_clean () =
  check_rules "same code outside lib/serve" ~path:"lib/par/worker.ml"
    ~expect:[] raw_read_src

let test_io_io_ml_exempt () =
  check_rules "io.ml itself implements the helpers" ~path:"lib/serve/io.ml"
    ~expect:[] raw_read_src

(* {1 QCA-HOT-004: formatting in hot regions} *)

let test_hot_printf_flagged () =
  check_rules "Printf inside [@qca.hot]" ~expect:[ "QCA-HOT-004" ]
    "let step x = Printf.printf \"%d\" x [@@qca.hot]\n"

let test_hot_unmarked_clean () =
  check_rules "Printf outside hot regions is fine" ~expect:[]
    "let step x = Printf.printf \"%d\" x\n"

let test_hot_trace_span_flagged () =
  check_rules "Trace.span inside [@qca.hot]" ~expect:[ "QCA-HOT-004" ]
    "let step x = Trace.span \"inner\" (fun () -> x + 1) [@@qca.hot]\n"

let test_hot_trace_begin_end_flagged () =
  check_rules "Trace.begin_span/end_span inside [@qca.hot]"
    ~expect:[ "QCA-HOT-004"; "QCA-HOT-004" ]
    "let step x =\n\
    \  Trace.begin_span \"inner\";\n\
    \  Trace.end_span \"inner\";\n\
    \  x + 1\n\
    \  [@@qca.hot]\n"

let test_hot_ring_record_safe () =
  check_rules "Ring.record is hot-safe" ~expect:[]
    "let k = Ring.kind \"sat.step\"\n\
     let step x = Ring.record k x 0 0 [@@qca.hot]\n"

let test_hot_metrics_safe () =
  check_rules "Metrics updates are hot-safe" ~expect:[]
    "let m = Obs.counter \"steps\"\n\
     let step h v =\n\
    \  Obs.incr m;\n\
    \  Obs.observe h v\n\
    \  [@@qca.hot]\n"

let test_hot_array_calls_flagged () =
  check_rules "Array.blit and Array.sort inside [@qca.hot]"
    ~expect:[ "QCA-HOT-004"; "QCA-HOT-004" ]
    "let step a b n =\n\
    \  Array.blit a 0 b 0 n;\n\
    \  Array.sort compare b\n\
    \  [@@qca.hot]\n"

let test_hot_blit_ints_safe () =
  check_rules "Array.blit outside hot regions and Arena.blit_ints are fine"
    ~expect:[]
    "let grow a b n = Array.blit a 0 b 0 n\n\
     let step a b n = Arena.blit_ints a 0 b 0 n [@@qca.hot]\n"

(* {1 QCA-WVR-005: malformed waivers} *)

let test_wvr_empty_reason () =
  check_rules "waiver with empty justification" ~expect:[ "QCA-WVR-005" ]
    "let x = ref 0 [@@qca.domain_safe \"\"]\n"

let test_wvr_unknown_rule () =
  check_rules "qca.waive must name a known rule id"
    ~expect:[ "QCA-WVR-005" ]
    "let x = 1 [@@qca.waive \"not-a-rule: because\"]\n"

let test_wvr_generic_waive () =
  check_rules "qca.waive naming the rule suppresses it" ~expect:[]
    "let m = Mutex.create ()\n\
     let f fd buf =\n\
    \  Mutex.lock m;\n\
    \  ignore (Unix.read fd buf 0 1);\n\
    \  Mutex.unlock m\n\
    \  [@@qca.waive \"QCA-LCK-002: single-threaded test shim\"]\n"

(* {1 QCA-SYN-000 and reporters} *)

let test_syn_parse_error () =
  check_rules "unparseable source" ~expect:[ "QCA-SYN-000" ] "let let = in\n"

let test_catalogue_complete () =
  let ids = List.map fst Devlint.rule_catalogue in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " catalogued") true (List.mem r ids))
    [
      "QCA-SYN-000";
      "QCA-MUT-001";
      "QCA-LCK-002";
      "QCA-IO-003";
      "QCA-HOT-004";
      "QCA-WVR-005";
    ]

let test_json_shape () =
  let findings = Devlint.lint_source ~path:"lib/x/j.ml" "let x = ref 0\n" in
  let js = Devlint.to_json findings in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true
        (let ln = String.length needle and l = String.length js in
         let rec at i = i + ln <= l && (String.sub js i ln = needle || at (i + 1)) in
         at 0))
    [ "\"file\""; "\"line\""; "\"col\""; "\"rule\""; "QCA-MUT-001" ];
  Alcotest.(check string) "empty list" "[]\n" (Devlint.to_json [])

let test_text_reporter () =
  let findings = Devlint.lint_source ~path:"lib/x/t.ml" "let x = ref 0\n" in
  let out = Format.asprintf "%a" Devlint.pp_text findings in
  Alcotest.(check bool) "file:line:col prefix" true
    (String.length out >= 12 && String.sub out 0 12 = "lib/x/t.ml:1")

let test_tree_is_clean () =
  (* the acceptance bar: the repository's own sources stay lint-clean.
     dune runs tests from _build/default/test, so look upward for the
     source copies; skip when they are not reachable (CI runs the CLI
     over the real tree in a dedicated lane). *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "lib/analysis/devlint.ml"))
      [ "."; ".."; "../.." ]
  in
  match root with
  | None -> Alcotest.skip ()
  | Some d ->
    let findings =
      Devlint.lint_paths
        [ Filename.concat d "lib"; Filename.concat d "bin" ]
    in
    let render fs = Format.asprintf "%a" Devlint.pp_text fs in
    Alcotest.(check string) "no findings in lib/ bin/" "" (render findings)

let suite =
  [
    ("MUT: ref", `Quick, test_mut_ref);
    ("MUT: hashtbl", `Quick, test_mut_hashtbl);
    ("MUT: array literal", `Quick, test_mut_array_literal);
    ("MUT: mutable record literal", `Quick, test_mut_record_literal);
    ("MUT: label collision clean", `Quick, test_mut_label_collision_clean);
    ("MUT: sync ctors exempt", `Quick, test_mut_atomic_clean);
    ("MUT: under fun exempt", `Quick, test_mut_under_fun_clean);
    ("MUT: waiver honoured", `Quick, test_mut_waived);
    ("LCK: blocking under lock", `Quick, test_lck_blocking_under_lock);
    ("LCK: unlock first", `Quick, test_lck_unlock_first_clean);
    ("LCK: condition wait ok", `Quick, test_lck_condition_wait_allowed);
    ("IO: serve flagged", `Quick, test_io_serve_flagged);
    ("IO: elsewhere clean", `Quick, test_io_elsewhere_clean);
    ("IO: io.ml exempt", `Quick, test_io_io_ml_exempt);
    ("HOT: printf flagged", `Quick, test_hot_printf_flagged);
    ("HOT: unmarked clean", `Quick, test_hot_unmarked_clean);
    ("HOT: trace span flagged", `Quick, test_hot_trace_span_flagged);
    ("HOT: trace begin/end flagged", `Quick, test_hot_trace_begin_end_flagged);
    ("HOT: ring record safe", `Quick, test_hot_ring_record_safe);
    ("HOT: metrics safe", `Quick, test_hot_metrics_safe);
    ("WVR: empty reason", `Quick, test_wvr_empty_reason);
    ("WVR: unknown rule", `Quick, test_wvr_unknown_rule);
    ("WVR: generic waive", `Quick, test_wvr_generic_waive);
    ("SYN: parse error", `Quick, test_syn_parse_error);
    ("rule catalogue", `Quick, test_catalogue_complete);
    ("json reporter", `Quick, test_json_shape);
    ("text reporter", `Quick, test_text_reporter);
    ("tree is lint-clean", `Quick, test_tree_is_clean);
    ("HOT: array blit and sort flagged", `Quick, test_hot_array_calls_flagged);
    ("HOT: blit_ints and cold blit clean", `Quick, test_hot_blit_ints_safe);
  ]
