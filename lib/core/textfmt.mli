(** Line-oriented text format for case bases and requests.

    The on-disk counterpart of the Matlab export tools the paper
    mentions in Sec. 4.2 ("tools ... for creating and exporting all
    needed data structures").  Example:

    {v
    # audio library
    casebase "audio-dsp"
    schema
      attr 1 "bitwidth" 8 16
      attr 4 "sample-rate" 8 44
    type 1 "fir-equalizer"
      impl 1 fpga
        set 1 16
        set 4 44
    request 1
      want 1 16 1.0
      want 4 40 1.0
    v}

    [#] starts a comment; blank lines are ignored; indentation is
    cosmetic.  Quoted names may contain spaces but no double quotes or
    newlines (there is no escape syntax).  A document holds at most one
    case base and any number of requests. *)

type document = { casebase : Casebase.t option; requests : Request.t list }

type parse_error = { line : int; message : string }
(** [line] is 1-based: the offending line or, when a core constructor
    refuses what a block or the whole document built, the line that
    opened it — the block's header, the first [schema] line for a
    refused schema, the [casebase] line for a refused case base, and
    the first [schema] or [type] line when the header is missing. *)

val parse_document : string -> (document, parse_error) result

val parse_casebase : string -> (Casebase.t, parse_error) result
(** Requires the document to contain exactly one case base. *)

val parse_request : string -> (Request.t, parse_error) result
(** Requires the document to contain exactly one request. *)

val print_casebase : Casebase.t -> string
(** Canonical form; [parse_casebase (print_casebase cb)] equals [cb]. *)

val print_request : Request.t -> string
val print_document : document -> string
val pp_parse_error : Format.formatter -> parse_error -> unit
