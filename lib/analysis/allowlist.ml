(* The one checked-in escape hatch for the static rules.

   Every exemption lives in a single reviewed file (by default
   tools/astlint/allowlist.txt) so the full set of "trusted anyway"
   sites is auditable at a glance.  Line format:

     <rule-id>  <canonical-symbol>  -- <reason>

   e.g.

     ast/lock-discipline  Parallel.Pool.worker_loop  -- assert is an
       unreachable-state check

   '#' starts a comment; the reason after "--" is mandatory — an
   exemption nobody can explain should not exist.  A symbol entry also
   covers everything below it ("Routing.Reference" covers
   "Routing.Reference.compute"); for the taint rule an allowlisted
   symbol is trusted entirely: its own primitive uses are accepted and
   the traversal does not continue through it, so keep entries as
   narrow as possible. *)

type entry = { rule : string; target : string; reason : string; line : int }
type t = { entries : entry list }

let empty = { entries = [] }

let parse_line ~line s =
  let s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let s = String.trim s in
  if s = "" then Ok None
  else
    let body, reason =
      (* Split on the first "--". *)
      let n = String.length s in
      let rec find i =
        if i + 1 >= n then None
        else if s.[i] = '-' && s.[i + 1] = '-' then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i ->
          ( String.trim (String.sub s 0 i),
            String.trim (String.sub s (i + 2) (n - i - 2)) )
      | None -> (s, "")
    in
    match
      String.split_on_char ' ' body |> List.filter (fun w -> w <> "")
    with
    | [ rule; target ] when reason <> "" ->
        Ok (Some { rule; target = Syms.canon_string target; reason; line })
    | [ _; _ ] -> Error (Printf.sprintf "line %d: missing -- reason" line)
    | _ ->
        Error
          (Printf.sprintf
             "line %d: expected `<rule-id> <symbol> -- <reason>`" line)

let parse_string contents =
  let lines = String.split_on_char '\n' contents in
  let entries, errors, _ =
    List.fold_left
      (fun (acc, errs, n) l ->
        match parse_line ~line:n l with
        | Ok None -> (acc, errs, n + 1)
        | Ok (Some e) -> (e :: acc, errs, n + 1)
        | Error m -> (acc, m :: errs, n + 1))
      ([], [], 1) lines
  in
  match errors with
  | [] -> Ok { entries = List.rev entries }
  | errs -> Error (String.concat "; " (List.rev errs))

let load path =
  match open_in path with
  | ic ->
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      parse_string contents
  | exception Sys_error m -> Error m

let find t ~rule sym =
  List.find_opt
    (fun e -> e.rule = rule && Syms.spec_matches ~spec:e.target sym)
    t.entries

let permits t ~rule sym = find t ~rule sym <> None
