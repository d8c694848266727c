//! Well-known vocabularies: `rdf:`, `rdfs:`, `xsd:`, and `sh:` (SHACL).

use crate::term::Iri;

/// The `rdf:` namespace prefix.
pub const RDF_NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
/// The `rdfs:` namespace prefix.
pub const RDFS_NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
/// The `xsd:` namespace prefix.
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema#";
/// The `sh:` (SHACL) namespace prefix.
pub const SH_NS: &str = "http://www.w3.org/ns/shacl#";

/// Full IRI of `xsd:string`, used to detect "plain" literals.
pub const XSD_STRING: &str = xsd::STRING;

/// Each constructor returns a clone of one process-wide [`Iri`], so naming
/// a well-known IRI bumps a reference count instead of allocating. An
/// entry written `name / CONST => "local"` also gets a `&'static str`
/// constant holding the full IRI, for code that borrows it.
macro_rules! vocab {
    ($ns:expr, $( $(#[$doc:meta])* $name:ident $(/ $konst:ident)? => $local:expr ),+ $(,)?) => {
        $(
            $(
                #[doc = concat!("`<", $ns, $local, ">`")]
                pub const $konst: &str = concat!($ns, $local);
            )?
            $(#[$doc])*
            pub fn $name() -> Iri {
                static IRI: std::sync::LazyLock<Iri> =
                    std::sync::LazyLock::new(|| Iri::new(concat!($ns, $local)));
                IRI.clone()
            }
        )+
    };
}

/// `iri` as an [`Iri`], sharing the process-wide allocation when it is a
/// datatype literals commonly carry.
pub(crate) fn datatype_iri(iri: &str) -> Iri {
    match iri {
        xsd::STRING => xsd::string(),
        rdf::LANG_STRING => rdf::lang_string(),
        xsd::INTEGER => xsd::integer(),
        xsd::DECIMAL => xsd::decimal(),
        xsd::DOUBLE => xsd::double(),
        xsd::BOOLEAN => xsd::boolean(),
        _ => Iri::new(iri),
    }
}

/// The RDF vocabulary.
pub mod rdf {
    use super::Iri;
    vocab!("http://www.w3.org/1999/02/22-rdf-syntax-ns#",
        /// `rdf:type`
        type_ / TYPE => "type",
        /// `rdf:first` (list head)
        first / FIRST => "first",
        /// `rdf:rest` (list tail)
        rest / REST => "rest",
        /// `rdf:nil` (empty list)
        nil / NIL => "nil",
        /// `rdf:langString` (datatype of language-tagged strings)
        lang_string / LANG_STRING => "langString",
    );
}

/// The RDFS vocabulary.
pub mod rdfs {
    use super::Iri;
    vocab!("http://www.w3.org/2000/01/rdf-schema#",
        /// `rdfs:subClassOf`
        sub_class_of => "subClassOf",
        /// `rdfs:label`
        label => "label",
    );
}

/// The XML Schema datatypes vocabulary.
pub mod xsd {
    use super::Iri;
    vocab!("http://www.w3.org/2001/XMLSchema#",
        /// `xsd:string`
        string / STRING => "string",
        /// `xsd:boolean`
        boolean / BOOLEAN => "boolean",
        /// `xsd:integer`
        integer / INTEGER => "integer",
        /// `xsd:int`
        int => "int",
        /// `xsd:long`
        long => "long",
        /// `xsd:decimal`
        decimal / DECIMAL => "decimal",
        /// `xsd:double`
        double / DOUBLE => "double",
        /// `xsd:float`
        float => "float",
        /// `xsd:date`
        date => "date",
        /// `xsd:dateTime`
        date_time => "dateTime",
        /// `xsd:anyURI`
        any_uri => "anyURI",
        /// `xsd:nonNegativeInteger`
        non_negative_integer => "nonNegativeInteger",
    );
}

/// The SHACL vocabulary (constraint components, targets, paths, node kinds).
pub mod sh {
    use super::Iri;
    vocab!("http://www.w3.org/ns/shacl#",
        /// `sh:NodeShape`
        node_shape => "NodeShape",
        /// `sh:PropertyShape`
        property_shape => "PropertyShape",
        /// `sh:path`
        path => "path",
        /// `sh:inversePath`
        inverse_path => "inversePath",
        /// `sh:alternativePath`
        alternative_path => "alternativePath",
        /// `sh:zeroOrMorePath`
        zero_or_more_path => "zeroOrMorePath",
        /// `sh:oneOrMorePath`
        one_or_more_path => "oneOrMorePath",
        /// `sh:zeroOrOnePath`
        zero_or_one_path => "zeroOrOnePath",
        /// `sh:node`
        node => "node",
        /// `sh:property`
        property => "property",
        /// `sh:and`
        and => "and",
        /// `sh:or`
        or => "or",
        /// `sh:not`
        not => "not",
        /// `sh:xone`
        xone => "xone",
        /// `sh:class`
        class => "class",
        /// `sh:datatype`
        datatype => "datatype",
        /// `sh:nodeKind`
        node_kind => "nodeKind",
        /// `sh:IRI`
        iri => "IRI",
        /// `sh:BlankNode`
        blank_node => "BlankNode",
        /// `sh:Literal`
        literal => "Literal",
        /// `sh:BlankNodeOrIRI`
        blank_node_or_iri => "BlankNodeOrIRI",
        /// `sh:BlankNodeOrLiteral`
        blank_node_or_literal => "BlankNodeOrLiteral",
        /// `sh:IRIOrLiteral`
        iri_or_literal => "IRIOrLiteral",
        /// `sh:minExclusive`
        min_exclusive => "minExclusive",
        /// `sh:minInclusive`
        min_inclusive => "minInclusive",
        /// `sh:maxExclusive`
        max_exclusive => "maxExclusive",
        /// `sh:maxInclusive`
        max_inclusive => "maxInclusive",
        /// `sh:minLength`
        min_length => "minLength",
        /// `sh:maxLength`
        max_length => "maxLength",
        /// `sh:pattern`
        pattern => "pattern",
        /// `sh:flags`
        flags => "flags",
        /// `sh:languageIn`
        language_in => "languageIn",
        /// `sh:uniqueLang`
        unique_lang => "uniqueLang",
        /// `sh:equals`
        equals => "equals",
        /// `sh:disjoint`
        disjoint => "disjoint",
        /// `sh:lessThan`
        less_than => "lessThan",
        /// `sh:lessThanOrEquals`
        less_than_or_equals => "lessThanOrEquals",
        /// `sh:minCount`
        min_count => "minCount",
        /// `sh:maxCount`
        max_count => "maxCount",
        /// `sh:qualifiedValueShape`
        qualified_value_shape => "qualifiedValueShape",
        /// `sh:qualifiedMinCount`
        qualified_min_count => "qualifiedMinCount",
        /// `sh:qualifiedMaxCount`
        qualified_max_count => "qualifiedMaxCount",
        /// `sh:qualifiedValueShapesDisjoint`
        qualified_value_shapes_disjoint => "qualifiedValueShapesDisjoint",
        /// `sh:closed`
        closed => "closed",
        /// `sh:ignoredProperties`
        ignored_properties => "ignoredProperties",
        /// `sh:hasValue`
        has_value => "hasValue",
        /// `sh:in`
        in_ => "in",
        /// `sh:targetNode`
        target_node => "targetNode",
        /// `sh:targetClass`
        target_class => "targetClass",
        /// `sh:targetSubjectsOf`
        target_subjects_of => "targetSubjectsOf",
        /// `sh:targetObjectsOf`
        target_objects_of => "targetObjectsOf",
        /// `sh:deactivated`
        deactivated => "deactivated",
        /// `sh:ValidationReport`
        validation_report => "ValidationReport",
        /// `sh:ValidationResult`
        validation_result => "ValidationResult",
        /// `sh:conforms`
        conforms => "conforms",
        /// `sh:result`
        result => "result",
        /// `sh:focusNode`
        focus_node => "focusNode",
        /// `sh:sourceShape`
        source_shape => "sourceShape",
        /// `sh:resultSeverity`
        result_severity => "resultSeverity",
        /// `sh:Violation`
        violation => "Violation",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_compose() {
        assert_eq!(rdf::type_().as_str(), format!("{RDF_NS}type"));
        assert_eq!(sh::min_count().as_str(), format!("{SH_NS}minCount"));
        assert_eq!(xsd::date_time().as_str(), format!("{XSD_NS}dateTime"));
        assert_eq!(
            rdfs::sub_class_of().as_str(),
            format!("{RDFS_NS}subClassOf")
        );
    }

    #[test]
    fn constructors_share_one_allocation() {
        let (a, b) = (xsd::string(), xsd::string());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, Iri::new(XSD_STRING));
    }
}
