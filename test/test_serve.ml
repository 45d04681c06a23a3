(* The adaptation service: wire validation, HTTP parsing and the
   protocol's HTTP mapping, the pure admission policy, the
   content-addressed cache, the bounded channel, and a live daemon on an
   ephemeral port driven through the client and raw sockets — including
   the fault-injection storm the robustness story is built on. *)

module Wire = Qca_circuit.Wire
module Parse = Qca_circuit.Parse
module Qasm = Qca_circuit.Qasm
module Circuit = Qca_circuit.Circuit
module Solver = Qca_sat.Solver
module Fault = Qca_util.Fault
module Chan = Qca_par.Chan
module Obs = Qca_obs.Metrics
module Tracectx = Qca_obs.Tracectx
module J = Qca_obs.Json
module Workloads = Qca_workloads.Workloads
open Qca_adapt
open Qca_serve

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let sample_text = "qubits 2\ncx 0 1\nsx 1\ncx 0 1\n"

let sample_qasm =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\n"

(* {1 Wire validation (untrusted input hardening)} *)

let test_wire_accepts_ascii () =
  checkb "plain ascii" true (Wire.validate sample_text = Ok ())

let test_wire_accepts_utf8 () =
  (* 2-, 3- and 4-byte sequences: é, €, 𝜋 *)
  let s = "# \xc3\xa9 \xe2\x82\xac \xf0\x9d\x9c\x8b\nqubits 1\nx 0\n" in
  checkb "multibyte utf-8" true (Wire.validate s = Ok ())

let test_wire_rejects_nul () =
  match Wire.validate "qubits 1\x00x 0\n" with
  | Error (Wire.Invalid_byte { offset; _ }) -> checki "nul offset" 8 offset
  | _ -> Alcotest.fail "NUL must be rejected"

let test_wire_rejects_bad_utf8 () =
  List.iter
    (fun (name, s) ->
      match Wire.validate s with
      | Error (Wire.Invalid_byte _) -> ()
      | _ -> Alcotest.fail (name ^ " must be rejected"))
    [
      ("lone continuation", "ok \x80 nope");
      ("truncated sequence", "ok \xc3");
      ("overlong slash", "ok \xc0\xaf");
      ("surrogate", "ok \xed\xa0\x80");
      ("beyond U+10FFFF", "ok \xf4\x90\x80\x80");
    ]

let test_wire_size_cap () =
  let big = String.make 64 'x' in
  (match Wire.validate ~max_bytes:16 big with
  | Error (Wire.Too_large { size; limit }) ->
    checki "size" 64 size;
    checki "limit" 16 limit
  | _ -> Alcotest.fail "oversized input must be rejected");
  checkb "describe mentions the cap" true
    (String.length (Wire.describe (Wire.Too_large { size = 64; limit = 16 })) > 0)

let test_parse_untrusted () =
  (match Parse.parse_untrusted sample_text with
  | Ok c -> checki "qubits" 2 (Circuit.num_qubits c)
  | Error _ -> Alcotest.fail "valid text refused");
  (match Parse.parse_untrusted ~max_bytes:4 sample_text with
  | Error (`Wire (Wire.Too_large _)) -> ()
  | _ -> Alcotest.fail "cap not enforced");
  (match Parse.parse_untrusted "qubits 1\nbogus 0\n" with
  | Error (`Syntax _) -> ()
  | _ -> Alcotest.fail "syntax error not typed");
  match Qasm.of_qasm_untrusted "OPENQASM 2.0;\nqreg q[\x00];\n" with
  | Error (`Wire (Wire.Invalid_byte _)) -> ()
  | _ -> Alcotest.fail "NUL in qasm not rejected"

(* {1 Fault spec parsing} *)

let test_fault_of_spec () =
  (match Fault.of_spec "serve-request:2:exhaust,serve-accept:1:cancel" with
  | Ok f ->
    checkb "1st request check clean" true (Fault.check f Fault.Serve_request = None);
    checkb "2nd request check fires" true
      (Fault.check f Fault.Serve_request = Some Fault.Exhaust);
    checkb "1st accept check fires" true
      (Fault.check f Fault.Serve_accept = Some Fault.Cancel)
  | Error e -> Alcotest.fail e);
  (match Fault.of_spec "random:7:0.5:spurious-conflict" with
  | Ok f -> checkb "random plan is live" false (Fault.is_none f)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ bad))
    [ "nope:1:cancel"; "sat-step:0:cancel"; "sat-step:1:frob"; "sat-step:1";
      "theory-check:1:exhaust" ]

let test_fault_site_names_roundtrip () =
  List.iter
    (fun site ->
      match Fault.of_spec (Fault.site_name site ^ ":1:exhaust") with
      | Ok f ->
        checkb "fires at its own site" true (Fault.check f site = Some Fault.Exhaust)
      | Error e -> Alcotest.fail e)
    [
      Fault.Sat_step; Fault.Omt_round; Fault.Warm_start;
      Fault.Greedy_step; Fault.Serve_accept; Fault.Serve_request;
    ]

(* {1 Bounded channel} *)

let test_chan_fifo () =
  let c = Chan.create ~capacity:8 in
  List.iter (fun i -> checkb "push" true (Chan.push c i)) [ 1; 2; 3 ];
  checki "length" 3 (Chan.length c);
  checkb "fifo" true
    (Chan.pop c = Some 1 && Chan.pop c = Some 2 && Chan.pop c = Some 3)

let test_chan_bounded () =
  let c = Chan.create ~capacity:2 in
  checkb "fits" true (Chan.try_push c 1 && Chan.try_push c 2);
  checkb "full rejects" false (Chan.try_push c 3);
  ignore (Chan.pop c);
  checkb "room again" true (Chan.try_push c 3)

let test_chan_close_drains () =
  let c = Chan.create ~capacity:8 in
  ignore (Chan.push c 1);
  ignore (Chan.push c 2);
  Chan.close c;
  checkb "closed rejects pushes" false (Chan.push c 3);
  checkb "drains queued items" true (Chan.pop c = Some 1 && Chan.pop c = Some 2);
  checkb "then signals exit" true (Chan.pop c = None);
  Chan.close c (* idempotent *)

let test_chan_cross_domain () =
  let c = Chan.create ~capacity:4 in
  let n = 200 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          match Chan.pop c with None -> acc | Some x -> go (acc + x)
        in
        go 0)
  in
  for i = 1 to n do
    ignore (Chan.push c i)
  done;
  Chan.close c;
  checki "all items delivered across domains" (n * (n + 1) / 2)
    (Domain.join consumer)

(* {1 Admission policy} *)

let decide depth =
  Admission.decide ~depth ~capacity:16 ~shed_fraction:0.5 ~direct_fraction:0.875

let test_admission_thresholds () =
  checkb "empty queue admits in full" true (decide 0 = Admission.Admit Protocol.No_shed);
  checkb "below shed point" true (decide 7 = Admission.Admit Protocol.No_shed);
  checkb "shed point demotes to greedy" true
    (decide 8 = Admission.Admit Protocol.Shed_greedy);
  checkb "still greedy" true (decide 13 = Admission.Admit Protocol.Shed_greedy);
  checkb "direct point" true (decide 14 = Admission.Admit Protocol.Shed_direct);
  checkb "last slot is direct" true (decide 15 = Admission.Admit Protocol.Shed_direct);
  (match decide 16 with
  | Admission.Refuse { retry_after_ms } ->
    checkb "refusal carries a hint" true (retry_after_ms >= 100)
  | _ -> Alcotest.fail "full queue must refuse");
  checki "hint is clamped low" 100 (Admission.retry_hint_ms ~depth:0);
  checki "hint is clamped high" 5000 (Admission.retry_hint_ms ~depth:1000)

(* {1 Result cache} *)

let circ_of text =
  match Parse.parse text with Ok c -> c | Error e -> Alcotest.fail e

let test_cache_basics () =
  let c = Cache.create ~capacity:2 in
  let k1 = Cache.key ~hardware:"D0" ~method_:"sat-p" ~circuit:sample_text in
  checkb "miss on empty" true (Cache.find c k1 = None);
  Cache.add c ~key:k1 ~adapted:(circ_of sample_text) ~makespan:(Some 42)
    ~proven:true;
  (match Cache.find c k1 with
  | Some e ->
    checkb "makespan kept" true (e.Cache.makespan = Some 42);
    checkb "proof flag kept" true e.Cache.proven;
    checks "digest matches" (Cache.digest_hex k1) e.Cache.digest
  | None -> Alcotest.fail "hit expected");
  (* distinct hardware / method / circuit all split the address *)
  List.iter
    (fun k -> checkb "no false sharing" true (Cache.find c k = None))
    [
      Cache.key ~hardware:"D1" ~method_:"sat-p" ~circuit:sample_text;
      Cache.key ~hardware:"D0" ~method_:"sat-r" ~circuit:sample_text;
      Cache.key ~hardware:"D0" ~method_:"sat-p" ~circuit:(sample_text ^ "x 0\n");
    ];
  Cache.invalidate c k1;
  checkb "invalidated" true (Cache.find c k1 = None)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  let key i = Cache.key ~hardware:"D0" ~method_:"sat-p" ~circuit:(string_of_int i) in
  let dummy = circ_of sample_text in
  Cache.add c ~key:(key 1) ~adapted:dummy ~makespan:None ~proven:false;
  Cache.add c ~key:(key 2) ~adapted:dummy ~makespan:None ~proven:false;
  ignore (Cache.find c (key 1));
  (* 2 is now the least recently used *)
  Cache.add c ~key:(key 3) ~adapted:dummy ~makespan:None ~proven:false;
  checki "bounded" 2 (Cache.length c);
  checkb "recently used survives" true (Cache.find c (key 1) <> None);
  checkb "LRU evicted" true (Cache.find c (key 2) = None)

(* {1 HTTP parsing} *)

let test_http_parsing () =
  (match Http.parse_head "POST /adapt?method=sat-p HTTP/1.1\r\nHost: x\r\nContent-Length: 12" with
  | Ok (meth, target, headers) ->
    checks "method" "POST" meth;
    let path, params = Http.split_target target in
    checks "path" "/adapt" path;
    checkb "param" true (List.assoc_opt "method" params = Some "sat-p");
    checkb "header lowered" true (Http.content_length headers = Ok (Some 12))
  | Error e -> Alcotest.fail e);
  (match Http.parse_head "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage head accepted");
  (match Http.parse_response_head "HTTP/1.1 413 Payload Too Large\r\nX-Qca-Error: too-large" with
  | Ok (status, headers) ->
    checki "status" 413 status;
    checkb "header" true (List.assoc_opt "x-qca-error" headers = Some "too-large")
  | Error e -> Alcotest.fail e);
  (* Content-Length is ASCII digits only *)
  let cl v = Http.content_length [ ("content-length", v) ] in
  checkb "digits" true (cl "16" = Ok (Some 16));
  List.iter
    (fun v -> checkb ("rejects " ^ v) true (Result.is_error (cl v)))
    [ "0x10"; "1_0"; "+5"; "-1"; ""; "1e3"; "99999999999999999999" ];
  (* the head scanner: complete, partial, garbage, oversize *)
  (match Http.scan_head "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nbody" with
  | `Complete (head, rest) ->
    checks "head" "GET /healthz HTTP/1.1\r\nHost: x" head;
    checks "rest" "body" rest
  | _ -> Alcotest.fail "complete head not recognised");
  checkb "partial" true (Http.scan_head "POS" = `Need_more);
  checkb "partial line" true (Http.scan_head "GET /x HTTP/1.1\r\n" = `Need_more);
  List.iter
    (fun g ->
      match Http.scan_head g with
      | `Bad _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "garbage %S accepted" g))
    [ "\x00\x01"; "get / HTTP/1.1"; " GET"; String.make 17 'Z' ];
  match Http.scan_head ("GET /" ^ String.make Http.max_head_bytes 'x') with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "oversize head accepted"

(* {1 Protocol: the HTTP mapping} *)

(* Through the real wire: render, re-parse, decode. *)
let roundtrip_request (r : Protocol.adapt_request) =
  let target, headers = Protocol.http_of_adapt_request r in
  let wire = Http.request ~meth:"POST" ~headers target r.Protocol.circuit_text in
  match Http.scan_head wire with
  | `Complete (head, body) -> (
    match Http.parse_head head with
    | Error e -> Alcotest.fail e
    | Ok (_, target, headers) -> (
      let _, params = Http.split_target target in
      match Protocol.adapt_request_of_http ~params ~headers body with
      | Ok r' -> r'
      | Error (_, m) -> Alcotest.fail m))
  | _ -> Alcotest.fail "request head does not scan"

let roundtrip_response r =
  let status, headers, body = Protocol.http_of_response r in
  match Http.split_head_body (Http.response ~status ~headers body) with
  | None -> Alcotest.fail "response head does not split"
  | Some (head, body) -> (
    match Http.parse_response_head head with
    | Error e -> Alcotest.fail e
    | Ok (status, headers) -> (
      match Protocol.response_of_http ~status headers body with
      | Ok r' -> r'
      | Error m -> Alcotest.fail m))

let test_protocol_request_roundtrip () =
  let r =
    {
      Protocol.method_ = Pipeline.Sat Model.Sat_r;
      hardware = Hardware.d1;
      format = Protocol.Qasm;
      timeout_ms = Some 1500.0;
      max_conflicts = Some 9000;
      use_cache = false;
      traceparent =
        Some "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
      circuit_text = sample_qasm;
    }
  in
  let r' = roundtrip_request r in
  checkb "method" true (r'.Protocol.method_ = Pipeline.Sat Model.Sat_r);
  checks "hardware" "D1" r'.Protocol.hardware.Hardware.name;
  checkb "format" true (r'.Protocol.format = Protocol.Qasm);
  checkb "deadline" true (r'.Protocol.timeout_ms = Some 1500.0);
  checkb "conflicts" true (r'.Protocol.max_conflicts = Some 9000);
  checkb "cache opt-out" false r'.Protocol.use_cache;
  checkb "traceparent" true (r'.Protocol.traceparent = r.Protocol.traceparent);
  checks "body" sample_qasm r'.Protocol.circuit_text;
  (* the defaults survive too, for every method name *)
  List.iter
    (fun name ->
      let method_ = Result.get_ok (Pipeline.method_of_string name) in
      let d =
        roundtrip_request
          {
            r with
            method_;
            hardware = Hardware.d0;
            format = Protocol.Text;
            timeout_ms = None;
            max_conflicts = None;
            use_cache = true;
            traceparent = None;
          }
      in
      checks "method name" name (Pipeline.method_to_string d.Protocol.method_);
      checkb "defaults" true
        (d.Protocol.timeout_ms = None && d.Protocol.max_conflicts = None
        && d.Protocol.use_cache && d.Protocol.traceparent = None
        && d.Protocol.format = Protocol.Text))
    Pipeline.method_names

let test_protocol_response_roundtrip () =
  let p =
    {
      Protocol.tier = Pipeline.Greedy_fallback;
      reason = Some "conflict budget exhausted";
      shed = Protocol.Shed_greedy;
      cache = Protocol.Cache_revalidated;
      cache_key = "00ff00ff00ff00ff";
      conflicts = 17;
      propagations = 4242;
      elapsed_ms = 12.5;
      queue_ms = 3.25;
      trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
      makespan = Some 186;
      proven = true;
      certified = Some true;
      adapted_text = sample_text;
    }
  in
  (match roundtrip_response (Protocol.Result p) with
  | Protocol.Result p' -> checkb "payload survives" true (p' = p)
  | _ -> Alcotest.fail "wrong response kind");
  let bare =
    {
      p with
      reason = None;
      makespan = None;
      proven = false;
      certified = None;
      trace_id = "";
    }
  in
  (match roundtrip_response (Protocol.Result bare) with
  | Protocol.Result p' -> checkb "optional fields stay absent" true (p' = bare)
  | _ -> Alcotest.fail "wrong response kind");
  let error code retry_after_ms =
    Protocol.Error_resp { code; message = "busy"; retry_after_ms }
  in
  (match roundtrip_response (error Protocol.Overloaded (Some 3000)) with
  | Protocol.Error_resp e ->
    checkb "code" true (e.code = Protocol.Overloaded);
    checks "message" "busy" e.message;
    checkb "hint" true (e.retry_after_ms = Some 3000)
  | _ -> Alcotest.fail "wrong response kind");
  (* Retry-After is whole seconds: a sub-second hint rounds up *)
  (match roundtrip_response (error Protocol.Overloaded (Some 300)) with
  | Protocol.Error_resp e -> checkb "hint rounded up" true (e.retry_after_ms = Some 1000)
  | _ -> Alcotest.fail "wrong response kind");
  List.iter
    (fun (code, status) ->
      let s, _, _ = Protocol.http_of_response (error code None) in
      checki (Protocol.error_code_to_string code) status s;
      match roundtrip_response (error code None) with
      | Protocol.Error_resp e ->
        checkb "code survives" true (e.code = code && e.retry_after_ms = None)
      | _ -> Alcotest.fail "wrong response kind")
    [
      (Protocol.Bad_frame, 400); (Protocol.Too_large, 413);
      (Protocol.Invalid_circuit, 400); (Protocol.Unsupported, 400);
      (Protocol.Overloaded, 503); (Protocol.Shutting_down, 503);
      (Protocol.Internal, 500);
    ]

let test_protocol_rejects_garbage () =
  let decode params =
    Protocol.adapt_request_of_http ~params ~headers:[] sample_text
  in
  let expect code params =
    match decode params with
    | Error (c, _) ->
      checks "error code"
        (Protocol.error_code_to_string code)
        (Protocol.error_code_to_string c)
    | Ok _ -> Alcotest.fail "garbage request accepted"
  in
  expect Protocol.Unsupported [ ("method", "sat-x") ];
  expect Protocol.Unsupported [ ("hw", "d7") ];
  expect Protocol.Unsupported [ ("format", "pdf") ];
  expect Protocol.Bad_frame [ ("timeout-ms", "-1") ];
  expect Protocol.Bad_frame [ ("timeout-ms", "nan") ];
  expect Protocol.Bad_frame [ ("max-conflicts", "1.5") ];
  expect Protocol.Bad_frame [ ("max-conflicts", "-3") ];
  (* responses: a result must name its tier, errors a known code, and an
     untyped failure status is not a response *)
  checkb "result without tier" true
    (Result.is_error (Protocol.response_of_http ~status:200 [] "x"));
  checkb "unknown error code" true
    (Result.is_error
       (Protocol.response_of_http ~status:400 [ ("x-qca-error", "nope") ] ""));
  checkb "untyped 404" true
    (Result.is_error (Protocol.response_of_http ~status:404 [] "not found\n"))

(* {1 One name table: the CLIs accept exactly what serve accepts} *)

let bin_dir = Filename.concat (Filename.dirname Sys.executable_name) "../bin"

let exit_code exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null null null)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let test_cli_names_match_serve () =
  let clis = [ "qca_adapt_cli.exe"; "qca_lint_cli.exe" ] in
  let exes = List.map (Filename.concat bin_dir) clis in
  if not (List.for_all Sys.file_exists exes) then
    Alcotest.skip ()  (* built by `dune runtest`, not by `dune exec` *)
  else begin
    let file = Filename.temp_file "qca-names" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Out_channel.with_open_text file (fun oc -> output_string oc sample_text);
        let cases =
          List.map (fun m -> (m, "d0")) (Pipeline.method_names @ [ "greedy-x"; "SAT-P" ])
          @ List.map (fun hw -> ("direct", hw)) [ "D1"; "d1"; "d2" ]
        in
        List.iter
          (fun (m, hw) ->
            let serve_ok =
              Result.is_ok
                (Protocol.adapt_request_of_http
                   ~params:[ ("method", m); ("hw", hw) ]
                   ~headers:[] sample_text)
            in
            List.iter
              (fun exe ->
                (* exit 3 is the CLIs' invalid-input code *)
                let cli_ok = exit_code exe [ "-m"; m; "--hw"; hw; file ] <> 3 in
                checkb
                  (Printf.sprintf "%s -m %s --hw %s" (Filename.basename exe) m hw)
                  serve_ok cli_ok)
              exes)
          cases)
  end

(* Flags whose subject was deleted are cmdliner usage errors (exit
   124), not silently ignored options. An invalid bind address keeps a
   daemon that did accept its flag from listening: it fails fast. *)
let test_cli_removed_flags () =
  let exe name = Filename.concat bin_dir name in
  let cases =
    [
      ("qca_serve_cli.exe", [ "daemon"; "--templates"; "4" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--jobs"; "2" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--no-incremental" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--slow-ms"; "5" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--queue"; "4" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--shed-at"; "0.5" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--direct-at"; "0.9" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--cache"; "4" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--default-timeout-ms"; "100" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--max-timeout-ms"; "100" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--max-request-bytes"; "100" ]);
      ("qca_serve_cli.exe", [ "daemon"; "--revalidate-period"; "2" ]);
      ("qca_adapt_cli.exe", [ "--jobs"; "2" ]);
      ("qca_adapt_cli.exe", [ "--no-incremental" ]);
      ("qca_lint_cli.exe", [ "--jobs"; "2" ]);
      ("qca_sat_cli.exe", [ "--jobs"; "2" ]);
    ]
  in
  if not (List.for_all (fun (e, _) -> Sys.file_exists (exe e)) cases) then
    Alcotest.skip ()  (* built by `dune runtest`, not by `dune exec` *)
  else begin
    let file = Filename.temp_file "qca-flags" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Out_channel.with_open_text file (fun oc -> output_string oc sample_text);
        List.iter
          (fun (e, args) ->
            let args =
              if e = "qca_serve_cli.exe" then
                args @ [ "--port"; "0"; "--host"; "not-an-address" ]
              else args @ [ file ]
            in
            checki (String.concat " " (e :: args)) 124 (exit_code (exe e) args))
          cases)
  end

(* {1 Live daemon} *)

let with_server ?(cfg = Server.default_config) f =
  let cfg = { cfg with Server.port = 0; workers = 2 } in
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f (Server.port t))

let call port req =
  match Client.adapt ~host:"127.0.0.1" ~port ~timeout_s:30.0 req with
  | Ok r -> r
  | Error e -> Alcotest.fail ("client: " ^ e)

let pings port = Client.ping ~host:"127.0.0.1" ~port () = Ok ()

let adapt_req ?(method_ = Pipeline.Sat Model.Sat_p) ?(format = Protocol.Text)
    ?timeout_ms ?max_conflicts ?(use_cache = true) text =
  {
    Protocol.method_;
    hardware = Hardware.d0;
    format;
    timeout_ms;
    max_conflicts;
    use_cache;
    traceparent = None;
    circuit_text = text;
  }

let expect_result = function
  | Protocol.Result p -> p
  | Protocol.Error_resp { message; _ } -> Alcotest.fail ("error resp: " ^ message)

let expect_error code = function
  | Protocol.Error_resp e ->
    checks "error code"
      (Protocol.error_code_to_string code)
      (Protocol.error_code_to_string e.code)
  | Protocol.Result _ -> Alcotest.fail "expected a typed error"

let contains needle hay =
  let re = Str.regexp_string needle in
  try ignore (Str.search_forward re hay 0); true with Not_found -> false

let test_server_ping_metrics () =
  with_server @@ fun port ->
  checkb "healthz answers" true (pings port);
  match Client.metrics ~host:"127.0.0.1" ~port () with
  | Ok text ->
    checkb "summary includes serve counters" true (contains "serve.accepted" text)
  | Error e -> Alcotest.fail e

let test_server_adapt_and_cache () =
  with_server @@ fun port ->
  let p1 = expect_result (call port (adapt_req sample_text)) in
  checkb "full tier" true (p1.Protocol.tier = Pipeline.Full);
  checkb "first is a miss" true (p1.Protocol.cache = Protocol.Cache_miss);
  checkb "solver worked" true (p1.Protocol.propagations > 0);
  checkb "small instance proven optimal" true p1.Protocol.proven;
  (* the adapted text is itself valid and equivalent *)
  let adapted = circ_of p1.Protocol.adapted_text in
  checkb "response parses and is equivalent" true
    (Circuit.equivalent (circ_of sample_text) adapted);
  (* a repeat must hit the cache and skip the solver entirely *)
  let sat_conflicts = Obs.counter "sat.conflicts" in
  let before = Obs.value sat_conflicts in
  let p2 = expect_result (call port (adapt_req sample_text)) in
  checkb "repeat hits" true
    (p2.Protocol.cache = Protocol.Cache_hit
    || p2.Protocol.cache = Protocol.Cache_revalidated);
  checki "cache hit skips the solver" before (Obs.value sat_conflicts);
  checkb "cache hit keeps the proof flag" true p2.Protocol.proven;
  checks "same content address" p1.Protocol.cache_key p2.Protocol.cache_key;
  checks "same adapted circuit" p1.Protocol.adapted_text p2.Protocol.adapted_text;
  (* whitespace and comments do not split the content address *)
  let noisy = "# a comment\n\nqubits 2\n  cx 0 1\nsx 1\ncx 0 1\n" in
  let p3 = expect_result (call port (adapt_req noisy)) in
  checks "canonical key" p1.Protocol.cache_key p3.Protocol.cache_key;
  (* opting out bypasses the cache *)
  let p4 = expect_result (call port (adapt_req ~use_cache:false sample_text)) in
  checkb "no-cache is a miss" true (p4.Protocol.cache = Protocol.Cache_miss)

let test_server_qasm_and_invalid () =
  with_server @@ fun port ->
  let p = expect_result (call port (adapt_req ~format:Protocol.Qasm sample_qasm)) in
  checkb "qasm served in full" true (p.Protocol.tier = Pipeline.Full);
  expect_error Protocol.Invalid_circuit
    (call port (adapt_req "qubits 1\nbogus 0\n"));
  expect_error Protocol.Invalid_circuit
    (call port (adapt_req "qubits 1\nx\x00 0\n"));
  (* the daemon is unharmed by the garbage *)
  checkb "still serves" true
    ((expect_result (call port (adapt_req sample_text))).Protocol.tier
    = Pipeline.Full)

let test_server_deadline_degrades () =
  with_server @@ fun port ->
  let p = expect_result (call port (adapt_req ~timeout_ms:0.0 sample_text)) in
  checkb "served from a fallback tier" true (p.Protocol.tier <> Pipeline.Full);
  checkb "reason names the deadline" true
    (p.Protocol.reason = Some (Solver.string_of_stop_reason Solver.Deadline));
  (* degraded responses are still valid circuits *)
  checkb "fallback is equivalent" true
    (Circuit.equivalent (circ_of sample_text) (circ_of p.Protocol.adapted_text))

(* An SMT reply is the circuit qca-adapt returns for the same input,
   whatever the daemon served before: SAT R right after SAT P on the
   same circuit gets the fresh answer. *)
let test_server_smt_parity () =
  let text =
    Parse.to_text (Workloads.quantum_volume ~seed:7 ~num_qubits:4 ~layers:3)
  in
  let c = circ_of text in
  with_server @@ fun port ->
  List.iter
    (fun meth ->
      let p =
        expect_result (call port (adapt_req ~method_:meth ~timeout_ms:30_000.0 text))
      in
      checks
        (Pipeline.method_name meth ^ " reply equals qca-adapt's")
        (Parse.to_text (Pipeline.adapt Hardware.d0 meth c))
        p.Protocol.adapted_text)
    [ Pipeline.Sat Model.Sat_p; Pipeline.Sat Model.Sat_r ]

(* A request stopped by its conflict cap is solved once: the search is
   deterministic, so a second attempt under the same cap could only
   repeat the degraded answer. The reply is the governed pipeline's
   under the same cap, and the solver counters grow by exactly what the
   reply reports. *)
let test_server_capped_request_solved_once () =
  let text =
    Parse.to_text (Workloads.random_template ~seed:3 ~num_qubits:4 ~depth:100)
  in
  let meth = Pipeline.Sat Model.Sat_r in
  let expected =
    Pipeline.adapt_governed
      ~budget:(Solver.budget ~max_conflicts:3 ())
      Hardware.d0 meth (circ_of text)
  in
  with_server @@ fun port ->
  let conflicts = Obs.counter "sat.conflicts" in
  let before = Obs.value conflicts in
  let p =
    expect_result
      (call port
         (adapt_req ~method_:meth ~timeout_ms:30_000.0 ~max_conflicts:3
            ~use_cache:false text))
  in
  checkb "stopped by the conflict cap" true
    (p.Protocol.reason
    = Some (Solver.string_of_stop_reason Solver.Out_of_conflicts));
  checki "the pipeline ran once" p.Protocol.conflicts
    (Obs.value conflicts - before);
  checkb "tier equals adapt_governed's" true
    (p.Protocol.tier = expected.Pipeline.tier);
  checks "reply equals adapt_governed's"
    (Parse.to_text expected.Pipeline.circuit)
    p.Protocol.adapted_text

let raw_exchange port bytes n_reply =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      let buf = Bytes.create n_reply in
      let rec go off =
        if off >= n_reply then off
        else
          match Unix.read fd buf off (n_reply - off) with
          | 0 -> off
          | k -> go (off + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error (_, _, _) -> off
      in
      let n = go 0 in
      Bytes.sub_string buf 0 n)

let status_line reply =
  match String.index_opt reply '\r' with
  | Some i -> String.sub reply 0 i
  | None -> reply

(* Answered well inside the server's 10 s socket timeout: a server that
   waited for more bytes would only answer once that ran out. *)
let prompt_exchange port bytes =
  let t0 = Unix.gettimeofday () in
  let reply = raw_exchange port bytes 4096 in
  checkb "answered promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  reply

let test_server_rejects_raw_garbage () =
  with_server @@ fun port ->
  (* bytes that cannot start a request line get a typed 400 at once *)
  List.iter
    (fun garbage ->
      let reply = prompt_exchange port garbage in
      checks "garbage answered 400" "HTTP/1.1 400 Bad Request" (status_line reply);
      checkb "typed bad-frame" true (contains "X-Qca-Error: bad-frame" reply))
    [ "\x00\x01\x02\x03\x00\x00\x00\x05hello"; "ZZZZZZZZZZZZZZZZZZZZ"; "GET\r\n\r\n" ];
  (* a length bomb is refused from the head alone: no body is sent, so a
     server that tried to read it would sit out the socket timeout *)
  let reply =
    prompt_exchange port
      "POST /adapt HTTP/1.1\r\nHost: x\r\nContent-Length: 2147483647\r\n\r\n"
  in
  checks "length bomb answered 413" "HTTP/1.1 413 Payload Too Large"
    (status_line reply);
  checkb "typed too-large" true (contains "X-Qca-Error: too-large" reply);
  checkb "daemon survives" true (pings port)

let test_server_oversize_head () =
  with_server @@ fun port ->
  let head =
    "GET /healthz HTTP/1.1\r\nX-Pad: " ^ String.make Http.max_head_bytes 'x'
  in
  let reply = prompt_exchange port head in
  checks "oversize head answered 400" "HTTP/1.1 400 Bad Request" (status_line reply);
  checkb "typed bad-frame" true (contains "X-Qca-Error: bad-frame" reply);
  checkb "daemon survives" true (pings port)

let test_server_http_shim () =
  with_server @@ fun port ->
  let reply = raw_exchange port "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" 8192 in
  checkb "healthz 200" true
    (String.length reply > 15 && String.sub reply 0 15 = "HTTP/1.1 200 OK");
  let body = Printf.sprintf "POST /adapt?method=sat-p HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
      (String.length sample_text) sample_text
  in
  let reply = raw_exchange port body 65536 in
  checkb "adapt 200" true
    (String.length reply > 15 && String.sub reply 0 15 = "HTTP/1.1 200 OK");
  checkb "tier header present" true (contains "X-Qca-Tier: full" reply);
  let reply = raw_exchange port "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n" 8192 in
  checks "404 on unknown path" "HTTP/1.1 404 Not Found" (status_line reply)

(* {2 Fault injection: the robustness paths} *)

(* An injected exhaustion is served at the ladder's floor with its
   reason, and the next request is solved in full. *)
let test_server_injected_exhaustion () =
  let cfg =
    {
      Server.default_config with
      fault = Fault.inject [ (Fault.Serve_request, 1, Fault.Exhaust) ];
    }
  in
  with_server ~cfg @@ fun port ->
  let p = expect_result (call port (adapt_req sample_text)) in
  checkb "served at the direct rung" true
    (p.Protocol.tier = Pipeline.Direct_fallback);
  checkb "reason names the conflict cap" true
    (p.Protocol.reason
    = Some (Solver.string_of_stop_reason Solver.Out_of_conflicts));
  checkb "floor is equivalent" true
    (Circuit.equivalent (circ_of sample_text) (circ_of p.Protocol.adapted_text));
  checkb "next request served in full" true
    ((expect_result (call port (adapt_req sample_text))).Protocol.tier
    = Pipeline.Full)

let test_server_handler_crash_isolated () =
  let cfg =
    {
      Server.default_config with
      fault = Fault.inject [ (Fault.Serve_request, 1, Fault.Spurious_conflict) ];
    }
  in
  with_server ~cfg @@ fun port ->
  expect_error Protocol.Internal (call port (adapt_req sample_text));
  (* the worker survived the crash and serves the next request in full *)
  checkb "daemon survives a handler crash" true
    ((expect_result (call port (adapt_req sample_text))).Protocol.tier
    = Pipeline.Full)

let test_server_client_gone_midsolve () =
  let cfg =
    {
      Server.default_config with
      fault = Fault.inject [ (Fault.Serve_request, 1, Fault.Cancel) ];
    }
  in
  with_server ~cfg @@ fun port ->
  (match Client.adapt ~host:"127.0.0.1" ~port (adapt_req sample_text) with
  | Error _ -> ()  (* the abandoned connection yields no response *)
  | Ok _ -> Alcotest.fail "cancelled request got a response");
  checkb "daemon survives an abandoned request" true (pings port)

let test_server_accept_faults () =
  let cfg =
    {
      Server.default_config with
      fault =
        Fault.inject
          [
            (Fault.Serve_accept, 1, Fault.Cancel);
            (Fault.Serve_accept, 2, Fault.Exhaust);
          ];
    }
  in
  with_server ~cfg @@ fun port ->
  (* 1st connection: dropped before its request is read *)
  checkb "dropped connection not answered" false (pings port);
  (* 2nd connection: forced admission refusal, a 503 typed with a hint *)
  (match Client.exchange ~host:"127.0.0.1" ~port ~meth:"GET" "/healthz" with
  | Ok (status, headers, _) ->
    checki "503" 503 status;
    checkb "overloaded" true (List.assoc_opt "x-qca-error" headers = Some "overloaded");
    checkb "retry hint" true (List.assoc_opt "retry-after" headers <> None)
  | Error e -> Alcotest.fail ("expected an Overloaded refusal: " ^ e));
  (* 3rd connection: business as usual *)
  checkb "recovers" true (pings port)

let test_server_certify_responses () =
  let cfg = { Server.default_config with certify = true } in
  with_server ~cfg @@ fun port ->
  let p = expect_result (call port (adapt_req sample_text)) in
  checkb "response carries a certificate" true (p.Protocol.certified = Some true)

(* {2 Forensics: dumps, rate limiting, trace correlation} *)

let with_dump_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qca-test-dumps-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let dump_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter Forensics.is_dump_file
  |> List.sort compare

let test_forensics_rate_limit_and_bound () =
  with_dump_dir @@ fun dir ->
  Forensics.reset_limiter ();
  let write ?(min_interval_ms = 0.0) reason =
    Forensics.write_dump ~dir ~max_files:4 ~min_interval_ms ~reason
      ~trace:None ~request:[ ("scope", "test") ]
      ~since_us:0 ~before:None ()
  in
  (* the limiter admits the first dump of a storm and suppresses the rest *)
  checkb "first dump lands" true (write ~min_interval_ms:60_000.0 "slow" <> None);
  checkb "second suppressed" true (write ~min_interval_ms:60_000.0 "slow" = None);
  Forensics.reset_limiter ();
  checkb "admits again after reset" true
    (write ~min_interval_ms:60_000.0 "slow" <> None);
  (* the directory stays bounded: oldest dumps pruned beyond max_files *)
  Forensics.reset_limiter ();
  for i = 0 to 9 do
    checkb "bounded-run dump lands" true
      (write (Printf.sprintf "r%02d" i) <> None)
  done;
  let files = dump_files dir in
  checki "dir bounded at max_files" 4 (List.length files);
  (* filenames order chronologically, so the survivors are the newest *)
  checkb "newest survive" true
    (List.for_all
       (fun f ->
         let re = Str.regexp_string "-r0" in
         (try
            ignore (Str.search_forward re f 0);
            List.exists
              (fun tag ->
                let re = Str.regexp_string tag in
                try ignore (Str.search_forward re f 0); true
                with Not_found -> false)
              [ "-r06"; "-r07"; "-r08"; "-r09" ]
          with Not_found -> true))
       files);
  (* SIGUSR1 service path: one dump per request flag *)
  Forensics.request_live_dump ();
  checkb "live dump serviced" true
    (Forensics.service_live_dump ~dir ~max_files:4 <> None);
  checkb "flag consumed" true
    (Forensics.service_live_dump ~dir ~max_files:4 = None)

let test_forensics_watchdog () =
  let st = Forensics.watch_state () in
  (* first sample only baselines the counters *)
  checkb "baseline sample" false (Forensics.watch_step st ~inflight:1);
  (* flat counters with work in flight: stuck on the 3rd flat sample *)
  checkb "flat 1" false (Forensics.watch_step st ~inflight:1);
  checkb "flat 2" false (Forensics.watch_step st ~inflight:1);
  checkb "flat 3 is stuck" true (Forensics.watch_step st ~inflight:1);
  (* progress resets the stall count *)
  checkb "post-trip sample" false (Forensics.watch_step st ~inflight:1);
  Obs.set_enabled true;
  Obs.incr (Obs.counter "sat.conflicts");
  checkb "progress clears" false (Forensics.watch_step st ~inflight:1);
  checkb "flat again 1" false (Forensics.watch_step st ~inflight:1);
  (* idle flatness is not stuckness *)
  checkb "idle is fine" false (Forensics.watch_step st ~inflight:0);
  checkb "idle is fine 2" false (Forensics.watch_step st ~inflight:0);
  checkb "idle is fine 3" false (Forensics.watch_step st ~inflight:0)

let header_value name reply =
  let re = Str.regexp (Str.quote name ^ ": \\([^\r\n]*\\)") in
  try
    ignore (Str.search_forward re reply 0);
    Some (Str.matched_group 1 reply)
  with Not_found -> None

let client_tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
let client_trace = "4bf92f3577b34da6a3ce929d0e0e4736"

let http_adapt ?traceparent port text =
  let body =
    Printf.sprintf
      "POST /adapt?method=sat-p HTTP/1.1\r\nHost: x\r\n%sContent-Length: \
       %d\r\n\r\n%s"
      (match traceparent with
      | Some tp -> Printf.sprintf "Traceparent: %s\r\n" tp
      | None -> "")
      (String.length text) text
  in
  raw_exchange port body 65536

let test_server_trace_and_dump () =
  with_dump_dir @@ fun dir ->
  Forensics.reset_limiter ();
  let cfg =
    {
      Server.default_config with
      dump_dir = Some dir;
      fault = Fault.inject [ (Fault.Serve_request, 1, Fault.Spurious_conflict) ];
    }
  in
  with_server ~cfg @@ fun port ->
  (* 1st request: injected crash under the client's trace context — the
     typed error still carries the trace id, and exactly one forensic
     dump lands, correlated to the same id *)
  let reply = http_adapt ~traceparent:client_tp port sample_text in
  checks "faulted reply carries the client's trace id" client_trace
    (Option.value ~default:"?" (header_value "X-Qca-Trace-Id" reply));
  (match dump_files dir with
  | [ f ] ->
    checkb "filename embeds the trace" true
      (let re = Str.regexp_string (String.sub client_trace 0 16) in
       try ignore (Str.search_forward re f 0); true with Not_found -> false);
    let text = In_channel.with_open_bin (Filename.concat dir f)
        In_channel.input_all
    in
    (match J.parse text with
    | Error e -> Alcotest.fail ("dump does not parse: " ^ e)
    | Ok doc ->
      checks "dump schema" "qca.dump.v1"
        (Option.value ~default:"?" (J.str_member "schema" doc));
      checks "dump reason" "fault"
        (Option.value ~default:"?" (J.str_member "reason" doc));
      checks "dump trace id" client_trace
        (Option.value ~default:"?" (J.str_member "trace_id" doc));
      checkb "dump has a request block" true (J.member "request" doc <> None);
      checkb "dump has a ring array" true (J.arr_member "ring" doc <> None))
  | files ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one dump, got %d" (List.length files)));
  (* 2nd request: healthy; a fresh trace id is generated, the queue-time
     header is present, and no further dump appears *)
  let reply = http_adapt port sample_text in
  (match header_value "X-Qca-Trace-Id" reply with
  | Some id ->
    checki "generated trace id is 32 hex" 32 (String.length id);
    checkb "distinct from the client trace" true (id <> client_trace)
  | None -> Alcotest.fail "healthy reply lacks X-Qca-Trace-Id");
  (match header_value "X-Qca-Queue-Ms" reply with
  | Some ms -> checkb "queue header parses" true (float_of_string_opt ms <> None)
  | None -> Alcotest.fail "healthy reply lacks X-Qca-Queue-Ms");
  checki "still exactly one dump" 1 (List.length (dump_files dir));
  (* the client's typed result carries the same observability fields *)
  let p = expect_result (call port (adapt_req ~use_cache:false sample_text)) in
  checki "typed trace id is 32 hex" 32 (String.length p.Protocol.trace_id);
  checkb "typed queue time sane" true
    (p.Protocol.queue_ms >= 0.0 && p.Protocol.queue_ms < 60_000.0)

let test_server_prometheus_endpoint () =
  with_server @@ fun port ->
  (* one real request so the histograms have content *)
  ignore (expect_result (call port (adapt_req sample_text)));
  let reply = raw_exchange port "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" 262144 in
  checkb "200" true
    (String.length reply > 15 && String.sub reply 0 15 = "HTTP/1.1 200 OK");
  let has needle = contains needle reply in
  checkb "TYPE lines" true (has "# TYPE qca_serve_requests counter");
  checkb "histogram buckets" true (has "_bucket{le=\"+Inf\"}");
  checkb "histogram count" true (has "qca_serve_request_ms_count");
  checkb "quantile family" true (has "quantile=\"0.99\"");
  checkb "queue-wait histogram exported" true (has "qca_serve_queue_wait_ms");
  (* the human summary stays reachable *)
  let human =
    raw_exchange port "GET /metrics?format=human HTTP/1.1\r\nHost: x\r\n\r\n"
      262144
  in
  checkb "human format answers" true (contains "serve.requests" human)

(* {2 Soak: a storm of faults and hostile input} *)

let test_server_soak () =
  let fault =
    Fault.inject
      [
        (Fault.Serve_accept, 3, Fault.Cancel);
        (Fault.Serve_accept, 8, Fault.Exhaust);
        (Fault.Serve_request, 2, Fault.Exhaust);
        (Fault.Serve_request, 5, Fault.Spurious_conflict);
        (Fault.Serve_request, 9, Fault.Cancel);
        (Fault.Serve_request, 13, Fault.Exhaust);
      ]
  in
  let cfg =
    {
      Server.default_config with
      fault;
      certify = true;  (* every success response is checked end to end *)
    }
  in
  with_server ~cfg @@ fun port ->
  let texts =
    [
      sample_text;
      "qubits 2\ncx 0 1\nsx 1\ncx 0 1\n";  (* repeat of sample_text *)
      "qubits 3\ncx 0 1\ncx 1 2\nx 2\n";
      "qubits 2\nrz(0.5) 0\ncx 0 1\n";
      "qubits 1\nbogus!!\n";  (* malformed *)
      "qubits 2\nx\x00 0\n";  (* NUL bomb *)
      "qubits 4\ncx 0 1\ncx 2 3\ncx 1 2\nsx 0\n";
      "qubits 2\nsx 0\nsx 1\ncx 0 1\n";
      "qubits 3\nx 0\ncx 0 2\nrz(1.0) 2\n";
    ]
  in
  let results = ref 0 and errors = ref 0 and dropped = ref 0 in
  for i = 0 to 29 do
    let text = List.nth texts (i mod List.length texts) in
    let timeout_ms = if i mod 11 = 10 then Some 0.0 else None in
    match Client.adapt ~host:"127.0.0.1" ~port (adapt_req ?timeout_ms text) with
    | Ok (Protocol.Result p) ->
      incr results;
      (* a success response under --certify is never a wrong answer *)
      checkb "soak: success certified or degraded-but-equivalent" true
        (Circuit.equivalent (circ_of text) (circ_of p.Protocol.adapted_text))
    | Ok (Protocol.Error_resp _) -> incr errors
    | Error _ -> incr dropped
  done;
  checkb "soak: successes happened" true (!results > 10);
  checkb "soak: typed errors happened" true (!errors > 0);
  checkb "soak: injected drops happened" true (!dropped > 0);
  (* zero crashes: the daemon still answers, and the cache holds at most
     one entry per circuit *)
  checkb "soak: daemon alive after the storm" true (pings port);
  checkb "soak: one cache entry per circuit" true
    (Obs.gauge_value (Obs.gauge "serve.cache.size")
    <= float_of_int (List.length texts))

let test_server_stop_idempotent () =
  let t = Server.start { Server.default_config with Server.port = 0 } in
  let port = Server.port t in
  checkb "up" true (pings port);
  Server.stop t;
  Server.stop t;
  (* after the drain the port no longer accepts *)
  checkb "stopped server no longer answers" true
    (Result.is_error (Client.ping ~host:"127.0.0.1" ~port ~timeout_s:2.0 ()))

let suite =
  [
    ("wire: ascii ok", `Quick, test_wire_accepts_ascii);
    ("wire: utf-8 ok", `Quick, test_wire_accepts_utf8);
    ("wire: NUL rejected", `Quick, test_wire_rejects_nul);
    ("wire: bad utf-8 rejected", `Quick, test_wire_rejects_bad_utf8);
    ("wire: size cap", `Quick, test_wire_size_cap);
    ("wire: untrusted parse entry points", `Quick, test_parse_untrusted);
    ("fault: of_spec", `Quick, test_fault_of_spec);
    ("fault: site names roundtrip", `Quick, test_fault_site_names_roundtrip);
    ("chan: fifo", `Quick, test_chan_fifo);
    ("chan: bounded", `Quick, test_chan_bounded);
    ("chan: close drains", `Quick, test_chan_close_drains);
    ("chan: cross-domain", `Quick, test_chan_cross_domain);
    ("admission: thresholds", `Quick, test_admission_thresholds);
    ("cache: basics", `Quick, test_cache_basics);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("http: parsing", `Quick, test_http_parsing);
    ("names: CLIs accept exactly serve's set", `Quick, test_cli_names_match_serve);
    ("names: removed flags are usage errors", `Quick, test_cli_removed_flags);
    ("protocol: request roundtrip", `Quick, test_protocol_request_roundtrip);
    ("protocol: response roundtrip", `Quick, test_protocol_response_roundtrip);
    ("protocol: rejects garbage", `Quick, test_protocol_rejects_garbage);
    ("server: ping and metrics", `Quick, test_server_ping_metrics);
    ("server: adapt and cache", `Quick, test_server_adapt_and_cache);
    ("server: qasm and invalid input", `Quick, test_server_qasm_and_invalid);
    ("server: deadline degrades", `Quick, test_server_deadline_degrades);
    ("server: SMT replies equal qca-adapt", `Quick, test_server_smt_parity);
    ("server: capped request solved once", `Quick, test_server_capped_request_solved_once);
    ("server: raw garbage and length bomb", `Quick, test_server_rejects_raw_garbage);
    ("server: oversize head answered", `Quick, test_server_oversize_head);
    ("server: http shim", `Quick, test_server_http_shim);
    ("server: exhaustion served at the floor", `Quick, test_server_injected_exhaustion);
    ("server: handler crash isolated", `Quick, test_server_handler_crash_isolated);
    ("server: client gone mid-solve", `Quick, test_server_client_gone_midsolve);
    ("server: accept faults", `Quick, test_server_accept_faults);
    ("server: certified responses", `Quick, test_server_certify_responses);
    ("forensics: rate limit and bounded dir", `Quick, test_forensics_rate_limit_and_bound);
    ("forensics: watchdog stall detection", `Quick, test_forensics_watchdog);
    ("server: trace roundtrip and auto-dump", `Quick, test_server_trace_and_dump);
    ("server: prometheus endpoint", `Quick, test_server_prometheus_endpoint);
    ("server: fault storm soak", `Quick, test_server_soak);
    ("server: stop is idempotent", `Quick, test_server_stop_idempotent);
  ]
