(* RPKI origin validation. *)

open Core

let test_prefix_parse () =
  let parses s addr len =
    let p = Rpki.prefix s in
    Alcotest.(check int32) (s ^ " address") addr p.Rpki.addr;
    Alcotest.(check int) (s ^ " length") len p.Rpki.len
  in
  parses "10.16.0.0/12" 0x0A100000l 12;
  parses "0.0.0.0/0" 0l 0;
  parses "192.168.1.1/32" 0xC0A80101l 32

let test_prefix_errors () =
  let bad s msg =
    Alcotest.check_raises s (Invalid_argument msg) (fun () ->
        ignore (Rpki.prefix s))
  in
  bad "10.0.0.0/33" "Rpki.prefix \"10.0.0.0/33\": bad prefix length";
  bad "10.0.0.256/8" "Rpki.prefix \"10.0.0.256/8\": bad octet";
  bad "10.0.0.1/8" "Rpki.prefix \"10.0.0.1/8\": host bits set";
  bad "10.0.0.0" "Rpki.prefix \"10.0.0.0\": expected addr/len"

let test_covers () =
  let covers a b = Rpki.covers (Rpki.prefix a) (Rpki.prefix b) in
  Alcotest.(check bool) "self" true (covers "10.0.0.0/8" "10.0.0.0/8");
  Alcotest.(check bool) "subprefix" true (covers "10.0.0.0/8" "10.1.0.0/16");
  Alcotest.(check bool) "superprefix" false (covers "10.1.0.0/16" "10.0.0.0/8");
  Alcotest.(check bool) "disjoint" false (covers "10.0.0.0/8" "11.0.0.0/8");
  Alcotest.(check bool) "default covers all" true
    (covers "0.0.0.0/0" "203.0.113.0/24")

let roas = [ Rpki.roa "10.0.0.0/8" ~max_len:16 65001 ]

let ann prefix path = { Rpki.ann_prefix = Rpki.prefix prefix; as_path = path }

let test_validation () =
  let v a =
    match Rpki.validate roas a with
    | Rpki.Valid -> "valid"
    | Rpki.Invalid -> "invalid"
    | Rpki.Unknown -> "unknown"
  in
  (* Legitimate origin. *)
  Alcotest.(check string) "valid" "valid" (v (ann "10.0.0.0/8" [ 1; 2; 65001 ]));
  (* Legitimate origin, allowed more-specific. *)
  Alcotest.(check string) "valid subprefix" "valid"
    (v (ann "10.5.0.0/16" [ 65001 ]));
  (* Prefix hijack: wrong origin. *)
  Alcotest.(check string) "hijack invalid" "invalid"
    (v (ann "10.0.0.0/8" [ 3; 666 ]));
  (* Subprefix hijack: too specific even for the right origin. *)
  Alcotest.(check string) "too specific invalid" "invalid"
    (v (ann "10.0.1.0/24" [ 65001 ]));
  (* No covering ROA. *)
  Alcotest.(check string) "unknown" "unknown" (v (ann "192.0.2.0/24" [ 7 ]));
  (* The paper's attack: a bogus path "m d" claims the LEGITIMATE origin
     and therefore passes origin validation — exactly why S*BGP is needed
     (Section 3). *)
  Alcotest.(check string) "path attack passes origin validation" "valid"
    (v (ann "10.0.0.0/8" [ 666; 65001 ]))

let test_origin_of () =
  Alcotest.(check int) "origin is last hop" 65001
    (Rpki.origin_of (ann "10.0.0.0/8" [ 1; 2; 65001 ]));
  Alcotest.check_raises "empty path"
    (Invalid_argument "Rpki.origin_of: empty AS path") (fun () ->
      ignore (Rpki.origin_of (ann "10.0.0.0/8" [])))

let test_roa_max_len () =
  Alcotest.check_raises "max_len below prefix length"
    (Invalid_argument "Rpki.roa: max_len out of range") (fun () ->
      ignore (Rpki.roa "10.0.0.0/16" ~max_len:8 1))

let () =
  Alcotest.run "rpki"
    [
      ( "prefixes",
        [
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "errors" `Quick test_prefix_errors;
          Alcotest.test_case "covers" `Quick test_covers;
        ] );
      ( "validation",
        [
          Alcotest.test_case "rfc6483 outcomes" `Quick test_validation;
          Alcotest.test_case "origin_of" `Quick test_origin_of;
          Alcotest.test_case "roa max_len" `Quick test_roa_max_len;
        ] );
    ]
