exception Injected of string

exception Killed of string

type kind = Fail | Timeout | Kill | Stall

type arm = { kind : kind; at : int; mutable visits : int }

(* armed sites; the mutex covers both the table and the visit counters *)
let table : (string, arm) Hashtbl.t = Hashtbl.create 8

let lock = Mutex.create ()

let armed = Atomic.make false

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Atomic.set armed false;
  Mutex.unlock lock

let kind_of_string = function
  | "fail" -> Fail
  | "timeout" -> Timeout
  | "kill" -> Kill
  | "stall" -> Stall
  | k ->
      invalid_arg
        (Printf.sprintf
           "Fault.configure: unknown kind %S (fail|timeout|kill|stall)" k)

let parse_term term =
  match String.split_on_char '=' term with
  | [ site; rhs ] when site <> "" -> (
      match String.split_on_char '@' rhs with
      | [ kind ] -> (site, { kind = kind_of_string kind; at = 1; visits = 0 })
      | [ kind; n ] -> (
          match int_of_string_opt n with
          | Some at when at >= 1 ->
              (site, { kind = kind_of_string kind; at; visits = 0 })
          | _ ->
              invalid_arg
                (Printf.sprintf "Fault.configure: bad visit count %S" n))
      | _ -> invalid_arg ("Fault.configure: cannot parse term " ^ term))
  | _ -> invalid_arg ("Fault.configure: cannot parse term " ^ term)

let configure spec =
  let terms =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  let parsed = List.map parse_term terms in
  Mutex.lock lock;
  Hashtbl.reset table;
  List.iter (fun (site, arm) -> Hashtbl.replace table site arm) parsed;
  Atomic.set armed (parsed <> []);
  Mutex.unlock lock

let configure_from_env () =
  match Sys.getenv_opt "POM_FAULTS" with
  | Some spec when String.trim spec <> "" -> configure spec
  | _ -> ()

let enabled () = Atomic.get armed

(* returns the kind to fire, if this visit triggers *)
let visit site =
  if not (Atomic.get armed) then None
  else begin
    Mutex.lock lock;
    let fire =
      match Hashtbl.find_opt table site with
      | Some arm ->
          arm.visits <- arm.visits + 1;
          if arm.visits = arm.at then Some arm.kind else None
      | None -> None
    in
    Mutex.unlock lock;
    fire
  end

let point site =
  match visit site with
  | None -> ()
  | Some Fail -> raise (Injected site)
  | Some Timeout ->
      raise
        (Budget.Budget_exceeded { site; reason = "injected timeout" })
  | Some Kill -> raise (Killed site)
  | Some Stall ->
      (* hold the site until the ambient budget runs out or is cancelled;
         with no budget there is nothing to wait on, so fire at once *)
      if not (Budget.active ()) then
        raise
          (Budget.Budget_exceeded
             { site; reason = "injected stall with no budget installed" });
      while true do
        Budget.check site;
        Unix.sleepf 0.001
      done

let poll site = visit site <> None
